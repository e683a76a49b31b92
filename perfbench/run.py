"""Closed-loop benchmark of zerocorr, calling its entry points in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: small_queries, gaussian_heavy, empirical_roots (see
``workloads.py``).  One caller runs the next op only after the previous one
returned.  A run

1. times set-up -- import of zerocorr plus one warm-up op -- in
   ``SETUP_PROBES`` fresh interpreters and takes the median;
2. builds the workload's ops (one pass) from the seed and runs whole blocks
   of passes, untraced, for about S seconds and at least one block.  Every
   op's output is checked and digested; every pass must give the same
   combined digest;
3. with ``--trace 1``, runs one more pass with zerocorr's layers wrapped in
   spans, then the workload's census of known failing inputs, and reports
   per-layer metrics instead of the end-to-end ones.  The traced pass must
   give the untraced digest, and every wrapped attribute is restored.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the report: machine
facts, digests, failure counts by class and the tail percentile.  Both,
and the spans of a traced run, are also written under ``perfbench/out/``.
Exit status 2 means the run could not start (for example, no zerocorr
source next to the benchmark).
"""

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(warmup):
    """Median seconds of import plus warm-up op, over fresh interpreters."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *warmup],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_pass(ops, tracer=None):
    """Run every op once, in order; check the outputs once the pass is done."""
    from ops import run_op
    from workloads import check

    if tracer is None:
        outcomes = [run_op(op) for op in ops]
    else:
        with tracer:
            outcomes = [run_op(op, tracer) for op in ops]
    by_id = {o.op.id: o for o in outcomes}
    for outcome in outcomes:
        check(outcome, by_id)
    return outcomes


def closed_loop(workload, seconds):
    """Whole blocks of passes until another would overrun ``seconds`` (at least one).

    Returns one ``metrics.BlockSummary`` per block; the first keeps its op
    digests.
    """
    from metrics import summarize
    from ops import combined_digest

    blocks = []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        outcomes, digests = [], []
        for _ in range(workload.block_passes):
            done = run_pass(workload.ops)
            outcomes += done
            digests.append(combined_digest(done))
        blocks.append(summarize(outcomes, digests, keep_op_digests=not blocks))
        now = time.perf_counter()
        if now - start + (now - block_start) > seconds:
            return blocks


def write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op,
                                     s.thread, s.ok, s.info]) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zerocorr" / "__init__.py").is_file():
        print(f"no zerocorr source under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import zerocorr

    if not Path(zerocorr.__file__).resolve().is_relative_to(SRC):
        print(f"imported zerocorr from {zerocorr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import machine
    import metrics
    from ops import cli_call, combined_digest
    from tracing import Tracer, current_attributes
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_s, setup_samples = measure_setup(workload.warmup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    code, _, err = cli_call(workload.warmup)
    if code != 0:
        print(f"warm-up op failed: {err.strip()}", file=sys.stderr)
        return 2

    blocks = closed_loop(workload, args.seconds)
    digests = [d for block in blocks for d in block.digests]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine.facts(),
        "setup_samples_s": setup_samples, "blocks": len(blocks),
        "passes_per_block": workload.block_passes, "ops_per_pass": len(workload.ops),
        "pass_digests": sorted(set(digests)),
    }
    correct = len(set(digests)) == 1
    OUT.mkdir(exist_ok=True)

    if args.trace:
        before = current_attributes()
        tracer = Tracer()
        traced = run_pass(workload.ops, tracer)
        census = run_pass(workload.census, tracer)
        restored = all(a is b for a, b in zip(before, current_attributes()))
        traced_digest = combined_digest(traced)
        correct = correct and restored and traced_digest == digests[0]
        untraced_busy = sum(sum(b.latencies) for b in blocks) / len(digests)
        values = metrics.layer_metrics(tracer.spans, traced, census, untraced_busy)
        blocks.append(metrics.summarize(traced, [traced_digest]))
        spans_path = OUT / f"{args.workload}-{args.seed}-spans.jsonl.gz"
        write_spans(spans_path, tracer.spans)
        report.update({
            "traced_digest": traced_digest, "attributes_restored": restored,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "census_failures": metrics.failure_counts(census),
            "census_errors": sorted({o.error for o in census if o.error})[:20],
        })
    else:
        values = metrics.end_to_end(blocks, setup_s, peak_rss_mb)
        _, percentile, count = metrics.tail(blocks[0].latencies)
        report["op_tail"] = {"percentile": percentile, "samples_per_block": count,
                             "beyond": metrics.TAIL_BEYOND}

    failures = {cls: sum(b.failures[cls] for b in blocks) for cls in blocks[0].failures}
    correct = correct and not any(failures.values())
    report.update({
        "failures": failures,
        "errors": sorted(set().union(*(b.errors for b in blocks)))[:20],
        "correct": correct,
    })
    result = {
        "correct": correct,
        "attempted": sum(len(b.latencies) for b in blocks),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result,
                    "op_digests": blocks[0].op_digests}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
