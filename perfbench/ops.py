"""One benchmark operation: its description, execution, outcome and digest.

An op is plain data (kind, params, argv, check name) so that the seeded
generators can be compared for reproducibility.  ``run_op`` executes it
in-process against zerocorr's public entry points: library calls looked up
on their module at call time, and CLI subcommands through
``zerocorr.cli.main(argv)`` with stdout and stderr captured.
"""

import contextlib
import hashlib
import importlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from zerocorr import cli, closed_form, kac_rice
from zerocorr.errors import ZerocorrError
from zerocorr.kernels import FubiniStudy, HeisenbergLevel, HeisenbergLimit

# Failure classes, in the order they are tested.
ZEROCORR = "zerocorr"   # ZerocorrError raised, or CLI exit code 1
OTHER = "other"         # any other exception or exit code
CHECK = "check"         # the op returned, but its output failed its check


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    id: int
    kind: str                       # "cli" or a library entry point
    check: str                      # name of the output check in workloads.CHECKS
    params: dict = field(default_factory=dict)
    argv: tuple | None = None
    units: int = 1                  # work units done when it succeeds; 0: not a work op
    capture: tuple | None = None    # (module, attribute) whose result the check needs


@dataclass
class Outcome:
    op: Op
    latency: float
    output: object = None
    captured: list = field(default_factory=list)
    failure: str | None = None
    error: str | None = None
    digest: str = ""

    @property
    def ok(self):
        return self.failure is None


def make_model(spec):
    """Model from ("limit", m), ("level", N, m) or ("fs", N, m)."""
    if spec[0] == "limit":
        return HeisenbergLimit(spec[1])
    if spec[0] == "level":
        return HeisenbergLevel(spec[1], spec[2])
    return FubiniStudy(spec[1], spec[2])


def _library_call(op):
    p = op.params
    if op.kind == "kappa":
        return closed_form.kappa(p["r"], p["m"], p["k"])
    query = kac_rice.CorrelationQuery(
        model=make_model(p["model"]), n=len(p["points"]), k=p["k"], points=p["points"],
    )
    if op.kind == "correlation":
        return kac_rice.correlation(query)
    if op.kind == "normalized_correlation":
        return kac_rice.normalized_correlation(query)
    raise ValueError(f"unknown op kind {op.kind!r}")


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _capturing(target, sink):
    """Record the results of calls through module attribute ``target``."""
    if target is None:
        yield
        return
    module = importlib.import_module(target[0])
    original = getattr(module, target[1])

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, target[1], capture)
    try:
        yield
    finally:
        setattr(module, target[1], original)


def run_op(op, tracer=None):
    """Execute one op, timed; classify a failure but do not check the output."""
    outcome = Outcome(op=op, latency=0.0)
    span = None
    with _capturing(op.capture, outcome.captured):
        if tracer is not None:
            span = tracer.begin_op(op.id, "cli.main" if op.argv else f"lib.{op.kind}",
                                   op.params.get("context"))
        start = time.perf_counter()
        try:
            if op.argv is not None:
                outcome.output = cli_call(op.argv)
            else:
                outcome.output = _library_call(op)
        except ZerocorrError as exc:
            outcome.failure, outcome.error = ZEROCORR, f"{type(exc).__name__}: {exc}"
        except (Exception, SystemExit) as exc:
            outcome.failure, outcome.error = OTHER, f"{type(exc).__name__}: {exc}"
        outcome.latency = time.perf_counter() - start
        if span is not None:
            tracer.end_op(span, outcome.ok)
    if outcome.ok and op.argv is not None:
        code, _, err = outcome.output
        if code != 0:
            outcome.failure = ZEROCORR if code == 1 else OTHER
            outcome.error = err.strip()
    outcome.digest = digest(outcome)
    return outcome


def _canonical(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"{float(value.real).hex()}{float(value.imag).hex()}j"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outcome):
    """sha256 of what the op produced: its output, or its failure."""
    if outcome.failure in (ZEROCORR, OTHER):
        text = f"error:{outcome.error}"
    else:
        text = _canonical(outcome.output)
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(outcomes):
    """sha256 over the op digests of one pass, in op order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.digest.encode())
    return h.hexdigest()
