"""Command-line front end emitting CSV/JSON tables for every computation.

Subcommands: kappa, correlate, converge, mc, kernel-check, connected.
Exit codes: 0 success, 1 numeric failure, 2 usage error.
"""

import argparse
import json
import sys
from itertools import combinations

import numpy as np

from . import closed_form, empirical, kac_rice
from .errors import DomainError, ZerocorrError
from .kernels import (
    FubiniStudy,
    HeisenbergLevel,
    HeisenbergLimit,
    fs_scaled_szego,
    heisenberg_limit_kernel,
)


def parse_grid(spec):
    """Parse ``a..b:n`` (inclusive linear grid) or ``a..b:n:log``."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or ".." not in parts[0]:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}, expected a..b:n[:log]")
    lo_s, hi_s = parts[0].split("..", 1)
    lo, hi, n = float(lo_s), float(hi_s), int(parts[1])
    if n < 1:
        raise argparse.ArgumentTypeError("grid steps must be >= 1")
    if len(parts) == 3:
        if parts[2] != "log":
            raise argparse.ArgumentTypeError(f"unknown grid modifier {parts[2]!r}")
        if lo <= 0:
            raise argparse.ArgumentTypeError("log grids need a positive start")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def parse_points(spec, m):
    """Parse ``re+imj,...;re+imj,...`` into a tuple of points in C^m."""
    points = []
    for chunk in spec.split(";"):
        try:
            values = [complex(v.strip().replace("i", "j")) for v in chunk.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad point {chunk!r}") from None
        if len(values) != m:
            raise argparse.ArgumentTypeError(
                f"point {chunk!r} has {len(values)} coordinates, expected {m}"
            )
        points.append(tuple(values))
    return tuple(points)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_table(header, rows, out_path, fmt):
    if fmt == "json":
        payload = [dict(zip(header, [v if isinstance(v, str) else float(v) for v in row]))
                   for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _make_model(args):
    if args.model == "heisenberg-limit":
        return HeisenbergLimit(m=args.m)
    if args.model == "heisenberg":
        return HeisenbergLevel(N=args.N, m=args.m)
    return FubiniStudy(N=args.N, m=args.m)


def _default_points(n, m, r):
    """Collinear default configuration: 0, r, 2r, ... along the first axis."""
    return tuple(tuple([p * r] + [0.0] * (m - 1)) for p in range(n))


def _fit_rate(levels, deviations):
    """Least-squares slope of log(deviation) against log(N), negated."""
    levels = np.asarray(levels, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    keep = deviations > 0
    if len(set(levels[keep])) < 2:
        raise DomainError("a rate needs nonzero deviations at two or more levels")
    return -np.polyfit(np.log(levels[keep]), np.log(deviations[keep]), 1)[0]


def cmd_kappa(args):
    m, k = args.m, args.k
    rows = [(r, closed_form.kappa(r, m, k), closed_form.kappa_series(r, m, k),
             closed_form.kappa_asymptote(r, m, k)) for r in args.r]
    write_table(["r", "kappa", "series", "asymptote"], rows, args.out, args.format)


def cmd_correlate(args):
    model = _make_model(args)
    if args.points:
        points = parse_points(args.points, args.m)
    else:
        points = _default_points(args.n, args.m, args.r)
    query = kac_rice.CorrelationQuery(
        model=model, n=args.n, k=args.k, points=points,
        method="monte_carlo" if args.method == "mc" else "exact",
        samples=args.samples, seed=args.seed,
    )
    value, err = kac_rice.correlation(query)
    normalized = value / kac_rice.one_point_density(model, args.k) ** args.n
    header = ["model", "n", "k", "m", "points", "K", "K_normalized", "stderr"]
    rows = [(
        args.model, args.n, args.k, args.m,
        ";".join(",".join(str(c) for c in p) for p in points),
        value, normalized, err,
    )]
    write_table(header, rows, args.out, args.format)


def cmd_converge(args):
    limit_model = HeisenbergLimit(m=args.m)
    points = _default_points(args.n, args.m, args.r)
    limit_query = kac_rice.CorrelationQuery(
        model=limit_model, n=args.n, k=args.k, points=points
    )
    limit_value, _ = kac_rice.correlation(limit_query)
    rows = []
    deviations = []
    levels = [int(round(N)) for N in args.levels]
    for N in levels:
        scaled_points = tuple(tuple(c / np.sqrt(N) for c in p) for p in points)
        query = kac_rice.CorrelationQuery(
            model=FubiniStudy(N=N, m=args.m), n=args.n, k=args.k,
            points=scaled_points, volume="euclidean",
        )
        finite, _ = kac_rice.correlation(query)
        finite_scaled = finite / N ** (args.n * args.k)
        deviations.append(abs(finite_scaled - limit_value))
        rows.append([N, finite_scaled, limit_value, deviations[-1]])
    exponent = _fit_rate(levels, deviations)
    header = ["N", "scaled_K", "limit_K", "abs_error", "rate_exponent"]
    rows = [row + [exponent] for row in rows]
    write_table(header, rows, args.out, args.format)


def cmd_mc(args):
    hist = empirical.pair_correlation_estimate(
        args.N, args.samples, args.window, args.bins, args.seed,
        process="poisson" if args.poisson else "roots",
    )
    rows = []
    for i, center in enumerate(hist.bin_centers):
        rows.append(
            (
                hist.bin_edges[i],
                hist.bin_edges[i + 1],
                int(hist.counts[i]),
                hist.normalizer[i],
                hist.g_estimate[i],
                hist.stderr[i],
                closed_form.kappa(center, 1, 1),
            )
        )
    header = ["bin_left", "bin_right", "count", "normalizer", "g_estimate",
              "stderr", "kappa_reference"]
    write_table(header, rows, args.out, args.format)


def cmd_kernel_check(args):
    if args.grid_steps < 1:
        raise DomainError("the grid needs at least 1 step")
    grid = np.linspace(-args.grid_extent, args.grid_extent, args.grid_steps)
    us = [complex(x, y) for x in grid for y in grid]
    levels = [int(round(N)) for N in args.levels]
    rows = []
    deviations = []
    for N in levels:
        worst = 0.0
        for u in us:
            for v in us:
                finite = fs_scaled_szego(N, args.m, [u] + [0] * (args.m - 1),
                                         [v] + [0] * (args.m - 1))
                limit = heisenberg_limit_kernel(
                    [u] + [0] * (args.m - 1), 0.0, [v] + [0] * (args.m - 1), 0.0
                )
                worst = max(worst, abs(finite - limit))
        deviations.append(worst)
        rows.append([N, worst])
    exponent = _fit_rate(levels, deviations)
    header = ["N", "sup_deviation", "rate_exponent"]
    rows = [row + [exponent] for row in rows]
    write_table(header, rows, args.out, args.format)


def cmd_connected(args):
    points = parse_points(args.points, args.m)
    n = len(points)
    model = HeisenbergLimit(m=args.m)
    kvalues = {}
    indices = list(range(1, n + 1))
    for size in range(2, n + 1):
        for subset in combinations(indices, size):
            sub_points = tuple(points[i - 1] for i in subset)
            query = kac_rice.CorrelationQuery(
                model=model, n=size, k=args.k, points=sub_points
            )
            kvalues[frozenset(subset)], _ = kac_rice.normalized_correlation(query)
    t_value = closed_form.connected_correlations(kvalues, n)
    bound = closed_form.decay_bound(points)
    header = ["n", "T_connected", "decay_bound"]
    write_table(header, [(n, t_value, bound)], args.out, args.format)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, without the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="zerocorr",
        description="Correlation functions of zeros of Gaussian random polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser(
        "kappa", help="closed-form pair correlation over a grid of r",
        epilog="columns: r, kappa, series, asymptote",
    )
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=parse_grid, required=True, help="grid spec a..b:n[:log]")
    common(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser(
        "correlate", help="n-point correlation for one configuration",
        epilog="columns: model, n, k, m, points, K, K_normalized, stderr",
    )
    p.add_argument("--model", choices=["fs", "heisenberg", "heisenberg-limit"],
                   required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=float, default=1.0,
                   help="spacing of the default collinear configuration")
    p.add_argument("--points", default=None,
                   help="explicit configuration, e.g. '0,0;1+1j,0'")
    p.add_argument("--method", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser(
        "converge", help="scaled finite-level correlation vs limit",
        epilog="columns: N, scaled_K, limit_K, abs_error, rate_exponent",
    )
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--levels", type=parse_grid, default="64..4096:4:log",
                   help="grid spec for N")
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser(
        "mc", help="empirical pair correlation of sampled roots",
        epilog="columns: bin_left, bin_right, count, normalizer, g_estimate, "
               "stderr, kappa_reference",
    )
    p.add_argument("--N", type=int, default=500)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--window", type=float, default=4.4)
    p.add_argument("--bins", type=parse_grid, default="0.2..3:15",
                   help="bin edges grid spec")
    p.add_argument("--poisson", action="store_true",
                   help="calibration run on uniform points")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser(
        "kernel-check", help="near-diagonal kernel deviation by level",
        epilog="columns: N, sup_deviation, rate_exponent",
    )
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--levels", type=parse_grid, default="100..6400:4:log")
    p.add_argument("--grid-extent", type=float, default=2.0)
    p.add_argument("--grid-steps", type=int, default=9)
    common(p)
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser(
        "connected", help="connected correlation for a configuration",
        epilog="columns: n, T_connected, decay_bound",
    )
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--points", required=True)
    common(p)
    p.set_defaults(func=cmd_connected)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except ZerocorrError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
