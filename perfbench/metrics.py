"""End-to-end metrics from op outcomes, and per-layer metrics from spans."""

import statistics
from collections import defaultdict
from dataclasses import dataclass

from ops import CHECK, OTHER, ZEROCORR
from tracing import children_index, self_time

TAIL_BEYOND = 10
ROOT_DEGREES = (500, 1000, 1500)


def tail(latencies, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  Needs more than ``beyond``
    samples.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


@dataclass
class BlockSummary:
    """What the end-to-end metrics need from one block of untraced passes.

    A block is a fixed number of passes per workload, so every block has the
    same ops and its tail sits at the same percentile however many blocks a
    run completes.  Outcomes, with their outputs, are dropped once a block is
    summarized, so the benchmark's own memory does not grow with the run.
    """

    latencies: list
    succeeded: int
    work_done: int      # units of successful work ops
    work_time: float    # seconds of all work ops, failed ones included
    digests: list       # combined digest of each pass
    failures: dict
    errors: set
    op_digests: dict | None = None


def summarize(outcomes, digests, keep_op_digests=False):
    work = [o for o in outcomes if o.op.units]
    return BlockSummary(
        latencies=[o.latency for o in outcomes],
        succeeded=sum(1 for o in outcomes if o.ok),
        work_done=sum(o.op.units for o in work if o.ok),
        work_time=sum(o.latency for o in work),
        digests=digests,
        failures=failure_counts(outcomes),
        errors={o.error for o in outcomes if o.error},
        op_digests={o.op.id: o.digest for o in outcomes} if keep_op_digests else None,
    )


def failure_counts(outcomes):
    counts = {ZEROCORR: 0, OTHER: 0, CHECK: 0}
    for outcome in outcomes:
        if outcome.failure is not None:
            counts[outcome.failure] += 1
    return counts


def end_to_end(blocks, setup_s, peak_rss_mb):
    """Metrics of the untraced closed loop, from the ``BlockSummary`` of each block.

    Busy time is the sum of op latencies.  Throughputs and tails are taken
    per block, then the median over blocks.  Throughput counts only
    successful work but divides by the time of every attempt, so a failure
    that becomes a slow success never reads as a loss.
    """
    latencies = [x for block in blocks for x in block.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(b.succeeded / sum(b.latencies) for b in blocks),
                      "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (statistics.median(tail(b.latencies)[0] for b in blocks), "s"),
        "work_units_per_s": (statistics.median(b.work_done / b.work_time for b in blocks),
                             "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, outcomes, census, untraced_busy):
    """Per-layer metrics of one traced pass: its outcomes, then the census's.

    ``trace_overhead`` compares the pass's busy time with ``untraced_busy``,
    the busy time of the same ops untraced.
    """
    kids = children_index(spans)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    ops = {o.op.id: o.op for o in outcomes + census}

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in named[name] if keep(s))

    def count(name, keep=lambda s: True):
        return sum(1 for s in named[name] if keep(s))

    def info(key, value):
        return lambda s: s.info is not None and s.info.get(key) == value

    def self_total(name, keep=lambda s: True):
        return sum(self_time(s, kids.get(s.id, ())) for s in named[name] if keep(s))

    cli_ops = named["cli.main"]
    correlate = {i for i, op in ops.items() if op.argv and op.argv[0] == "correlate"}
    exact_s = total("gaussian.expectation_det_product", info("method", "exact"))
    wick_terms = count("gaussian.wick_mixed_moment")
    mc = [s for s in named["gaussian.expectation_det_product"]
          if s.info and s.info["method"] == "monte_carlo"]
    mc_s = sum(s.duration for s in mc)
    mc_samples = sum(s.info["samples"] for s in mc)
    roots_ok = [s for s in named["empirical.polynomial_roots"] if s.ok]
    estimates = named["empirical.pair_correlation_estimate"]
    root_estimates = [s for s in estimates if s.info and s.info["process"] == "roots"]
    poisson = [s for s in estimates if s.info and s.info["process"] == "poisson"]
    traced_busy = sum(o.latency for o in outcomes)
    failures = failure_counts(census)

    metrics = {
        "cli.self_s": (_ratio(self_total("cli.main"), len(cli_ops)), "s"),
        "cli.correlations_per_correlate": (
            _ratio(count("kac_rice.correlation", lambda s: s.op in correlate),
                   sum(1 for s in cli_ops if s.op in correlate)), "count"),
        "kac_rice.calls": (count("kac_rice.correlation"), "count"),
        "kac_rice.failed": (count("kac_rice.correlation", lambda s: not s.ok), "count"),
        "kac_rice.assemble_blocks_s": (total("kac_rice.assemble_blocks"), "s"),
        "kac_rice.jet_covariance_s": (total("kac_rice.jet_covariance"), "s"),
        "kac_rice.self_s": (self_total("kac_rice.correlation"), "s"),
        "kernels.kernel_jet_calls": (count("kernels.kernel_jet"), "count"),
        "kernels.kernel_jet_s": (total("kernels.kernel_jet"), "s"),
        "kernels.nonfinite_jets": (count("kernels.kernel_jet", info("nonfinite", True)),
                                   "count"),
        "kernels.fs_scaled_szego_s": (total("kernels.fs_scaled_szego"), "s"),
        "linalg.cholesky_calls": (count("linalg.cholesky"), "count"),
        "linalg.cholesky_s": (total("linalg.cholesky"), "s"),
        "linalg.hermitian_solve_s": (total("linalg.hermitian_solve"), "s"),
        "linalg.determinant_s": (total("linalg.determinant"), "s"),
        "linalg.permanent_calls": (count("linalg.permanent"), "count"),
        "linalg.permanent_s": (total("linalg.permanent"), "s"),
        "gaussian.exact_s": (exact_s, "s"),
        "gaussian.wick_terms": (wick_terms, "count"),
        "gaussian.wick_terms_per_s": (_ratio(wick_terms, exact_s), "1/s"),
        "gaussian.mc_s": (mc_s, "s"),
        "gaussian.mc_samples": (mc_samples, "count"),
        "gaussian.mc_s_per_1e6": (_ratio(mc_s, mc_samples / 1e6), "s"),
        "closed_form.kappa_calls": (count("closed_form.kappa"), "count"),
        "closed_form.kappa_s": (total("closed_form.kappa"), "s"),
        "closed_form.decay_bound_s": (total("closed_form.decay_bound"), "s"),
        "empirical.sample_s": (total("empirical.sample_su2_polynomial"), "s"),
        "empirical.roots_calls": (count("empirical.polynomial_roots"), "count"),
        "empirical.roots_failed": (count("empirical.polynomial_roots", lambda s: not s.ok),
                                   "count"),
        "empirical.roots_useful_ratio": (
            _ratio(sum(s.info.get("useful", 0) for s in roots_ok),
                   sum(s.info["roots"] for s in roots_ok)), "ratio"),
        "empirical.estimate_self_s": (
            _ratio(sum(self_time(s, kids.get(s.id, ())) for s in poisson),
                   sum(s.info["samples"] for s in poisson)), "s"),
        "empirical.parallel_speedup": (
            _ratio(sum(c.duration for s in root_estimates for c in kids.get(s.id, ())
                       if c.name == "empirical.polynomial_roots"),
                   sum(s.duration for s in root_estimates)), "ratio"),
        "trace_overhead": (_ratio(traced_busy, untraced_busy) - 1.0, "ratio"),
        "census.failed_zerocorr": (failures[ZEROCORR], "count"),
        "census.failed_other": (failures[OTHER], "count"),
        "census.failed_check": (failures[CHECK], "count"),
        "census.failed_ratio": (_ratio(sum(failures.values()), len(census)), "ratio"),
    }
    for degree in ROOT_DEGREES:
        polys = [s for s in named["empirical.polynomial_roots"] if info("N", degree)(s)]
        metrics[f"empirical.roots_s_per_poly.N{degree}"] = (
            _ratio(sum(s.duration for s in polys), len(polys)), "s")
    return metrics
