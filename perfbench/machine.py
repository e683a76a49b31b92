"""Facts about the machine a run measured on.  Reads them; changes none."""

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _l3_size():
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if _read(index / "level") == "3":
            return _read(index / "size")
    return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _blas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return config.get("name"), config.get("version")


def _blas_threads():
    """Thread count reported by the BLAS library numpy has loaded, if it says."""
    libraries = {
        line.split()[-1]
        for line in (_read("/proc/self/maps") or "").splitlines()
        if "blas" in line.lower() and line.split()[-1].startswith("/")
    }
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def facts():
    from zerocorr.empirical import worker_count

    blas_name, blas_version = _blas()
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(affinity) if affinity is not None else None,
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {key: os.environ.get(key) for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ZEROCORR_THREADS": os.environ.get("ZEROCORR_THREADS"),
        "zerocorr_workers": worker_count(),
    }
