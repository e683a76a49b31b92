"""Seeded workload generators and the output checks of their ops.

Each workload is a fixed list of ops (one pass) made from the seed, plus a
census: inputs at the edge of the admitted domain that the program fails
on today (overflow of the flat and projective kernels, ``kappa`` at large r,
root polishing at high degree).  The timed loop runs only the pass, on which
every op must succeed; the census runs once, traced, and is counted by
failure class.

- ``small_queries``: thousands of cheap exact evaluations and small CLI
  ops; kernels, jet assembly, the solve, closed forms and per-call Python
  overhead dominate.
- ``gaussian_heavy``: ``correlate`` CLI ops at the large exact sizes, each
  paired with Monte Carlo ops on the same configuration, plus Monte Carlo
  alone beyond the exact cap; Wick permanents and MC sampling dominate.
- ``empirical_roots``: ``mc`` CLI ops on the roots process plus one Poisson
  calibration op; the companion eigensolve and polish dominate.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from zerocorr.closed_form import density, kappa, kappa_asymptote
from zerocorr.kac_rice import CorrelationQuery, normalized_correlation

from ops import CHECK, CheckFailed, Op, make_model

WINDOW = 4.4
# Monte Carlo ops draw 2^16 samples, one of the program's sampling chunks,
# not the CLI default of 10^6, and each configuration gets MC_REPEATS of them
# with different seeds: the cost per sample is the same, a block of two
# gaussian_heavy passes fits in one run, and its median and tail are order
# statistics over many Monte Carlo ops rather than over single executions.
MC_SAMPLES = 2 ** 16
MC_REPEATS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    census: tuple
    warmup: tuple       # CLI argv run once before timing starts
    block_passes: int   # passes per block of the timed loop (see metrics.BlockSummary)


# -- sampling helpers ----------------------------------------------------------


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _direction(rng, m):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


def _cluster(rng, n, m, radius, min_sep):
    """n points in the ball of the given radius in C^m, pairwise >= min_sep apart."""
    while True:
        pts = [_direction(rng, m) * radius * math.sqrt(rng.uniform()) for _ in range(n)]
        if all(np.linalg.norm(a - b) >= min_sep
               for i, a in enumerate(pts) for b in pts[i + 1:]):
            return pts


def _points(pts, scale=1.0):
    return tuple(tuple(complex(c) * scale for c in p) for p in pts)


def _model_spec(rng, kinds, m, n_lo=5, n_hi=10 ** 4):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "limit":
        return ("limit", m), 1.0
    N = int(round(_log_uniform(rng, n_lo, n_hi)))
    return (kind, N, m), 1.0 / math.sqrt(N)


def _cli_points(points):
    return ";".join(",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in p) for p in points)


_CLI_MODEL = {"limit": "heisenberg-limit", "level": "heisenberg", "fs": "fs"}


def _correlate_argv(spec, n, k, points, mc_seed=None):
    argv = ["correlate", "--model", _CLI_MODEL[spec[0]], "--m", str(spec[-1]),
            "--k", str(k), "--n", str(n), "--points=" + _cli_points(points),
            "--format", "json"]
    if spec[0] != "limit":
        argv += ["--N", str(spec[1])]
    if mc_seed is not None:
        argv += ["--method", "mc", "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)]
    return tuple(argv)


class _OpList:
    def __init__(self, first_id=0):
        self.first_id = first_id
        self.ops = []

    def add(self, kind, check, **fields):
        op = Op(id=self.first_id + len(self.ops), kind=kind, check=check, **fields)
        self.ops.append(op)
        return op.id

    def shuffled(self, rng):
        """The ops in a seeded random order, with references to other ops renumbered."""
        order = [int(j) for j in rng.permutation(len(self.ops))]
        position = {old: new for new, old in enumerate(order)}
        shuffled = []
        for new, old in enumerate(order):
            op = self.ops[old]
            params = op.params
            if "ref" in params:
                params = dict(params, ref=position[params["ref"]])
            shuffled.append(Op(id=new, kind=op.kind, params=params, argv=op.argv,
                               check=op.check, units=op.units, capture=op.capture))
        return tuple(shuffled)


# -- small_queries ---------------------------------------------------------------

FLAT_PAIRS = 300        # twin + translated pair queries, n = 2
FLAT_TRIPLES = 100      # twin + translated triple queries, n = 3
ONE_POINT = 400         # one-point densities, n = 1
FS_MULTI = 200          # projective pair and triple queries at scaled points
CLI_EACH = 20           # converge, kernel-check, connected and kappa CLI ops
MAX_OFFSET = 18.0       # flat translations in the pass; |z| >= 26 overflows today
CENSUS_OFFSET = 60.0    # flat translations in the census
FS_EXPONENT = 500.0     # pass keeps N log(1 + |z|^2) below this; exp overflows at 709


def _flat_twin_ops(b, rng, i, n, check_twin, max_offset):
    m = 1 + i % 3
    spec, scale = _model_spec(rng, (("limit", "level")[i // 3 % 2],), m)
    if n == 2:
        r = float(rng.uniform(0.3, 4.0))
        center = _direction(rng, m) * rng.uniform(0.0, 1.0)
        pts = [center, center + r * _direction(rng, m)]
    else:
        r = None
        pts = _cluster(rng, n, m, 2.0, 0.3)
    offset = _direction(rng, m) * _log_uniform(rng, 0.1, max_offset)
    translated = _points([p + offset for p in pts], scale)
    if not check_twin:
        return b.add("normalized_correlation", "kappa_rel",
                     params={"model": spec, "k": 1, "points": translated, "r": r, "m": m})
    twin = b.add("normalized_correlation", "kappa" if n == 2 else "positive",
                 params={"model": spec, "k": 1, "points": _points(pts, scale),
                         "r": r, "m": m})
    return b.add("normalized_correlation", "twin",
                 params={"model": spec, "k": 1, "points": translated, "ref": twin})


def _fs_radius_cap(N):
    return math.sqrt(math.expm1(FS_EXPONENT / N))


_MK = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
_ONE_POINT_KINDS = ("fs", "fs-scaled", "level", "limit")


def _one_point_op(b, rng, i, census):
    m, k = _MK[i % len(_MK)]
    kind = "fs" if census else _ONE_POINT_KINDS[i // len(_MK) % len(_ONE_POINT_KINDS)]
    spec, scale = _model_spec(rng, ("fs" if kind == "fs-scaled" else kind,), m)
    if kind == "fs":
        cap = 3.0 if census else min(3.0, _fs_radius_cap(spec[1]))
        pt = _direction(rng, m) * _log_uniform(rng, 0.01 * cap, cap)
        scale = 1.0
    else:
        pt = _direction(rng, m) * rng.uniform(0.0, 3.0)
    b.add("correlation", "density", params={"model": spec, "k": k,
                                            "points": _points([pt], scale)})


_KAPPA_KM = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))


def small_queries(seed):
    """Discrete choices (model, m, k, n) cycle so that every seed gets the same
    mix of query kinds; the seed draws points, offsets, levels N and radii."""
    rng = np.random.default_rng([seed, 1])
    b = _OpList()
    for i in range(FLAT_PAIRS):
        _flat_twin_ops(b, rng, i, 2, True, MAX_OFFSET)
    for i in range(FLAT_TRIPLES):
        _flat_twin_ops(b, rng, i, 3, True, MAX_OFFSET)
    for i in range(ONE_POINT):
        _one_point_op(b, rng, i, census=False)
    for i in range(FS_MULTI):
        m, n = 1 + i % 3, 2 + i // 3 % 2
        spec, scale = _model_spec(rng, ("fs",), m)
        pts = _cluster(rng, n, m, 2.0, 0.3)
        b.add("normalized_correlation", "positive",
              params={"model": spec, "k": 1, "points": _points(pts, scale)})
    for i in range(CLI_EACH):
        m = 1 + i % 2
        r = float(rng.uniform(0.5, 3.0))
        b.add("cli", "converge", params={"m": m, "r": r},
              argv=("converge", "--m", str(m), "--r", repr(r)))
        b.add("cli", "kernel_check",
              argv=("kernel-check", "--m", str(m), "--grid-steps", "3",
                    "--grid-extent", repr(float(rng.uniform(0.5, 2.0)))))
        pts = _cluster(rng, 3, m, 2.0, 0.3)
        b.add("cli", "connected",
              argv=("connected", "--m", str(m), "--points=" + _cli_points(_points(pts))))
        k, km = _KAPPA_KM[i % len(_KAPPA_KM)]
        lo, hi = float(rng.uniform(0.05, 0.5)), float(rng.uniform(1.0, 6.0))
        b.add("cli", "kappa_table", params={"m": km, "k": k},
              argv=("kappa", "--k", str(k), "--m", str(km), "--r", f"{lo!r}..{hi!r}:25"))
    ops = b.shuffled(rng)

    census = _OpList(len(ops))
    for i in range(60):
        _flat_twin_ops(census, rng, i, 2, False, CENSUS_OFFSET)
    for i in range(40):
        _one_point_op(census, rng, i, census=True)
    for i in range(20):
        k, m = _KAPPA_KM[i % len(_KAPPA_KM)]
        census.add("kappa", "asymptote",
                   params={"r": _log_uniform(rng, 5.0, 40.0), "m": m, "k": k})
    warmup = ("correlate", "--model", "heisenberg-limit", "--m", "1", "--n", "2")
    return Workload("small_queries", ops, tuple(census.ops), warmup, block_passes=1)


# -- gaussian_heavy -----------------------------------------------------------------

# (n, k, m, model); the model is fixed per size so that op costs do not
# depend on the seed
EXACT_SIZES = ((2, 2, 2, "limit"), (2, 2, 3, "level"), (3, 1, 3, "fs"), (2, 3, 3, "limit"))
MC_ONLY_SIZES = ((3, 2, 2, "level"), (4, 1, 2, "limit"), (3, 3, 3, "limit"))
FAR = 7.0   # scaled separation at which correlations factor to below 1e-15


def gaussian_heavy(seed):
    rng = np.random.default_rng([seed, 2])
    b = _OpList()
    for n, k, m, model in EXACT_SIZES:
        spec, scale = _model_spec(rng, (model,), m, 5, 10 ** 3)
        pts = _points(_cluster(rng, n, m, 1.5, 0.5), scale)
        params = {"model": spec, "n": n, "k": k, "points": pts}
        if spec[0] != "fs" and n == 2 and k <= 2:
            params["r"] = float(np.linalg.norm(np.subtract(pts[0], pts[1]))) / scale
        exact = b.add("cli", "correlate_exact", params=params, units=0,
                      argv=_correlate_argv(spec, n, k, pts))
        for _ in range(MC_REPEATS):
            b.add("cli", "correlate_mc", params=dict(params, ref=exact), units=MC_SAMPLES,
                  argv=_correlate_argv(spec, n, k, pts, int(rng.integers(2 ** 31))))
    for n, k, m, model in MC_ONLY_SIZES:
        spec, scale = _model_spec(rng, (model,), m, 5, 10 ** 3)
        near = n - 1 if k < 3 else 1
        pts = _cluster(rng, near, m, 1.5, 0.5)
        while len(pts) < n:
            candidate = pts[-1] + FAR * _direction(rng, m)
            if all(np.linalg.norm(candidate - p) >= FAR for p in pts):
                pts.append(candidate)
        pts = _points(pts, scale)
        for _ in range(MC_REPEATS):
            b.add("cli", "correlate_mc_far",
                  params={"model": spec, "n": n, "k": k, "points": pts, "near": near},
                  units=MC_SAMPLES,
                  argv=_correlate_argv(spec, n, k, pts, int(rng.integers(2 ** 31))))
    # ops stay in order: each exact op precedes its Monte Carlo twins
    warmup = ("correlate", "--model", "heisenberg-limit", "--m", "2", "--k", "2",
              "--n", "2", "--method", "mc", "--samples", "65536")
    return Workload("gaussian_heavy", tuple(b.ops), (), warmup, block_passes=2)


# -- empirical_roots -----------------------------------------------------------------

ROOT_OPS = 4            # mc ops on the roots process per pass
ROOT_DEGREE = 500
ROOT_SAMPLES = 6
POISSON_SAMPLES = 2000
CENSUS_DEGREES = ((1000, 2), (1500, 2))   # (N, samples): root polishing fails here


def _mc_argv(N, samples, seed, poisson=False):
    argv = ("mc", "--N", str(N), "--samples", str(samples), "--window", repr(WINDOW),
            "--seed", str(seed))
    return argv + ("--poisson",) if poisson else argv


def empirical_roots(seed):
    rng = np.random.default_rng([seed, 3])
    capture = ("zerocorr.empirical", "pair_correlation_estimate")
    context = {"window": WINDOW}
    b = _OpList()
    for _ in range(ROOT_OPS):
        b.add("cli", "mc_roots", units=ROOT_SAMPLES, capture=capture,
              params={"N": ROOT_DEGREE, "samples": ROOT_SAMPLES, "context": context},
              argv=_mc_argv(ROOT_DEGREE, ROOT_SAMPLES, int(rng.integers(2 ** 31))))
    b.add("cli", "poisson", units=0, argv=_mc_argv(ROOT_DEGREE, POISSON_SAMPLES,
                                          int(rng.integers(2 ** 31)), poisson=True))
    ops = b.shuffled(rng)
    census = _OpList(len(ops))
    for N, samples in CENSUS_DEGREES:
        census.add("cli", "mc_roots", units=samples, capture=capture,
                   params={"N": N, "samples": samples, "context": context},
                   argv=_mc_argv(N, samples, int(rng.integers(2 ** 31))))
    warmup = ("mc", "--N", str(ROOT_DEGREE), "--samples", "2")
    return Workload("empirical_roots", ops, tuple(census.ops), warmup, block_passes=6)


WORKLOADS = {
    "small_queries": small_queries,
    "gaussian_heavy": gaussian_heavy,
    "empirical_roots": empirical_roots,
}

# -- output checks ---------------------------------------------------------------------


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(value, reference, rtol, what):
    _require(math.isfinite(value), f"{what}: {value!r} is not finite")
    _require(abs(value - reference) <= rtol * max(1.0, abs(reference)),
             f"{what}: {value!r} differs from {reference!r} beyond {rtol:g}")


def _table(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(rows, "empty table")
    return [{key: float(value) for key, value in row.items()} for row in rows]


def _json_row(outcome):
    rows = json.loads(outcome.output[1])
    _require(len(rows) == 1, "correlate printed more than one row")
    return rows[0]


def _check_kappa(op, outcome, outcomes):
    value, _ = outcome.output
    _close(value, kappa(op.params["r"], op.params["m"], 1), 1e-10, "pair vs kappa")


def _check_kappa_rel(op, outcome, outcomes):
    value, _ = outcome.output
    _close(value, kappa(op.params["r"], op.params["m"], 1), 1e-8, "translated pair vs kappa")


def _check_twin(op, outcome, outcomes):
    value, _ = outcome.output
    twin = outcomes[op.params["ref"]]
    _require(twin.ok, "untranslated twin failed")
    _close(value, twin.output[0], 1e-8, "translated vs untranslated")


def _check_positive(op, outcome, outcomes):
    value, err = outcome.output
    _require(math.isfinite(value) and value > 0 and err == 0.0,
             f"correlation {value!r} is not finite and positive")


def _check_density(op, outcome, outcomes):
    value, _ = outcome.output
    rho = density(make_model(op.params["model"]), op.params["k"])
    _require(abs(value - rho) <= 1e-8 * rho, f"one-point {value!r} vs density {rho!r}")


def _check_asymptote(op, outcome, outcomes):
    p = op.params
    value = outcome.output
    _close(value, kappa_asymptote(p["r"], p["m"], p["k"]), 1e-6, "kappa vs asymptote")


def _check_converge(op, outcome, outcomes):
    rows = _table(outcome.output[1])
    m = op.params["m"]
    limit = kappa(op.params["r"], m, 1) * (m / math.pi) ** 2
    for row in rows:
        _close(row["limit_K"], limit, 1e-9, "converge limit_K vs kappa")
        _require(math.isfinite(row["scaled_K"]), "converge scaled_K not finite")
    _require(math.isfinite(rows[0]["rate_exponent"]), "converge rate not finite")


def _check_kernel(op, outcome, outcomes):
    rows = _table(outcome.output[1])
    devs = [row["sup_deviation"] for row in rows]
    _require(all(math.isfinite(d) and d > 0 for d in devs), "deviation not positive")
    _require(all(a > b for a, b in zip(devs, devs[1:])),
             f"kernel deviation does not fall with N: {devs}")


def _check_connected(op, outcome, outcomes):
    (row,) = _table(outcome.output[1])
    _require(math.isfinite(row["T_connected"]), "T_connected not finite")
    _require(math.isfinite(row["decay_bound"]) and row["decay_bound"] > 0,
             "decay bound not positive")


def _check_kappa_table(op, outcome, outcomes):
    for row in _table(outcome.output[1]):
        expected = kappa(row["r"], op.params["m"], op.params["k"])
        _require(row["kappa"] == expected, f"kappa({row['r']}) printed {row['kappa']!r}")


def _correlate_values(op, outcome):
    row = _json_row(outcome)
    value, normalized, err = row["K"], row["K_normalized"], row["stderr"]
    _require(all(math.isfinite(v) for v in (value, normalized, err)) and value > 0,
             f"correlate printed {row}")
    rho = density(make_model(op.params["model"]), op.params["k"]) ** op.params["n"]
    _require(abs(normalized * rho - value) <= 1e-12 * value,
             "K_normalized disagrees with K / rho^n")
    return value, normalized, err


def _check_correlate_exact(op, outcome, outcomes):
    _, normalized, err = _correlate_values(op, outcome)
    _require(err == 0.0, "exact op reported a standard error")
    if "r" in op.params:
        spec = op.params["model"]
        _close(normalized, kappa(op.params["r"], spec[-1], op.params["k"]), 1e-10,
               "exact pair vs kappa")


def _check_correlate_mc(op, outcome, outcomes):
    value, _, err = _correlate_values(op, outcome)
    exact = outcomes[op.params["ref"]]
    _require(exact.ok, "paired exact op failed")
    reference = _json_row(exact)["K"]
    _require(err > 0 and abs(value - reference) <= 5.0 * err,
             f"MC {value!r} +- {err!r} is beyond 5 sigma of exact {reference!r}")


def _check_correlate_mc_far(op, outcome, outcomes):
    value, normalized, err = _correlate_values(op, outcome)
    p = op.params
    near = p["points"][:p["near"]]
    reference = 1.0
    if len(near) >= 2:
        query = CorrelationQuery(model=make_model(p["model"]), n=len(near), k=p["k"],
                                 points=near)
        reference = normalized_correlation(query)[0]
    sigma = err * normalized / value
    _require(sigma > 0 and abs(normalized - reference) <= 5.0 * sigma,
             f"MC {normalized!r} +- {sigma!r} is beyond 5 sigma of the factored "
             f"value {reference!r}")


def _check_mc_roots(op, outcome, outcomes):
    rows = _table(outcome.output[1])
    (hist,) = outcome.captured
    expected = op.params["N"] * op.params["samples"]
    _require(hist.total_roots == expected,
             f"total_roots {hist.total_roots} != N * samples = {expected}")
    _require(all(row["count"] >= 0 and math.isfinite(row["g_estimate"]) for row in rows),
             "bad histogram row")


# Acceptance criterion 9 allows 4 sigma at one fixed seed.  Here the seed
# varies, and 4 sigma in any of the 14 bins happens on about 1 seed in 500
# for a correct estimator (3 of seeds 0-1499, none beyond 4.7 sigma).
POISSON_SIGMA = 5.0


def _check_poisson(op, outcome, outcomes):
    for row in _table(outcome.output[1]):
        deviation = abs(row["g_estimate"] - 1.0) / row["stderr"]
        _require(deviation < POISSON_SIGMA,
                 f"Poisson bin at {row['bin_left']}: {deviation:.2f} sigma")


CHECKS = {
    "kappa": _check_kappa,
    "kappa_rel": _check_kappa_rel,
    "twin": _check_twin,
    "positive": _check_positive,
    "density": _check_density,
    "asymptote": _check_asymptote,
    "converge": _check_converge,
    "kernel_check": _check_kernel,
    "connected": _check_connected,
    "kappa_table": _check_kappa_table,
    "correlate_exact": _check_correlate_exact,
    "correlate_mc": _check_correlate_mc,
    "correlate_mc_far": _check_correlate_mc_far,
    "mc_roots": _check_mc_roots,
    "poisson": _check_poisson,
}


def check(outcome, outcomes):
    """Mark a returned op whose output is wrong as a failed check."""
    if not outcome.ok:
        return
    try:
        CHECKS[outcome.op.check](outcome.op, outcome, outcomes)
    except CheckFailed as exc:
        outcome.failure, outcome.error = CHECK, str(exc)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        outcome.failure, outcome.error = CHECK, f"unreadable output: {exc!r}"
