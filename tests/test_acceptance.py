"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The empirical criterion takes about 20 s;
everything else finishes in well under two minutes combined.
"""

import math
import time
from itertools import combinations, product

import numpy as np
import pytest

from zerocorr import closed_form, empirical
from zerocorr.closed_form import (
    connected_correlations,
    correlations_from_connected,
    decay_bound,
    kappa,
)
from zerocorr.gaussian import expectation_det_product
from zerocorr.kac_rice import CorrelationQuery, correlation, normalized_correlation
from zerocorr.kernels import (
    FubiniStudy,
    HeisenbergLimit,
    fs_scaled_szego,
    heisenberg_limit_kernel,
)


def report(ok, number, text):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def collinear(n, m, r):
    return tuple(tuple([p * r] + [0.0] * (m - 1)) for p in range(n))


def fit_exponent(levels, deviations):
    levels = np.asarray(levels, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    return -np.polyfit(np.log(levels), np.log(deviations), 1)[0]


def test_criterion_1_oracle_agreement():
    start = time.time()
    worst = 0.0
    cases = [(1, m) for m in (1, 2, 3)] + [(2, m) for m in (2, 3)]
    for (k, m), r in product(cases, (0.5, 1.0, 2.0, 3.0)):
        query = CorrelationQuery(
            model=HeisenbergLimit(m), n=2, k=k, points=collinear(2, m, r)
        )
        value, _ = normalized_correlation(query)
        worst = max(worst, abs(value - kappa(r, m, k)))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(ok, 1, f"exact two-point vs closed form, 20 checks, worst "
                  f"|diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_kappa11_series():
    worst = 0.0
    for r in np.linspace(0.01, 0.3, 60):
        series = r ** 2 / 2 - r ** 6 / 36 + r ** 10 / 720 - r ** 14 / 16800
        worst = max(worst, abs(kappa(r, 1, 1) - series))
    ok = worst <= 1e-8
    report(ok, 2, f"kappa_11 four-term series to r = 0.3, worst "
                  f"|diff| = {worst:.2e}")


def test_criterion_3_kappa22_limits():
    short = abs(kappa(1e-3, 2, 2) - 0.75)
    # Richardson extraction of the r^4 and r^8 coefficients from two
    # closed-form evaluations near r = 0.2
    r1, r2 = 0.2, 0.25
    f1, f2 = kappa(r1, 2, 2) - 0.75, kappa(r2, 2, 2) - 0.75
    mat = np.array([[r1 ** 4, r1 ** 8], [r2 ** 4, r2 ** 8]])
    a, b = np.linalg.solve(mat, [f1, f2])
    err_a = abs(a - 1.0 / 24.0) * 24.0
    err_b = abs(b + 1.0 / 288.0) * 288.0
    ok = short < 1e-4 and err_a < 0.01 and err_b < 0.01
    report(ok, 3, f"kappa_22 short-distance limit |diff| = {short:.2e}, "
                  f"extracted r^4, r^8 coefficients off by {err_a:.2%}, {err_b:.2%}")


def test_criterion_4_densities():
    worst = 0.0
    for N in (5, 50):
        for m in (1, 2, 3):
            for k in range(1, m + 1):
                query = CorrelationQuery(
                    model=FubiniStudy(N, m), n=1, k=k, points=(tuple([0.0] * m),)
                )
                value, _ = correlation(query)
                expected = N ** k * math.factorial(m) / (
                    math.factorial(m - k) * math.pi ** k
                )
                worst = max(worst, abs(value - expected) / expected)
    for m in (1, 2, 3):
        for k in range(1, m + 1):
            query = CorrelationQuery(
                model=HeisenbergLimit(m), n=1, k=k, points=(tuple([0.0] * m),)
            )
            value, _ = correlation(query)
            expected = math.factorial(m) / (math.factorial(m - k) * math.pi ** k)
            worst = max(worst, abs(value - expected) / expected)
    ok = worst < 1e-10
    report(ok, 4, f"one-point densities, worst relative error = {worst:.2e}")


def test_criterion_5_universality_rate():
    start = time.time()
    levels = [64, 256, 1024, 4096]
    worst_rate = np.inf
    for m in (1, 2):
        for r in (0.5, 1.0, 2.0):
            points = collinear(2, m, r)
            limit_value, _ = correlation(
                CorrelationQuery(model=HeisenbergLimit(m), n=2, k=1, points=points)
            )
            deviations = []
            for N in levels:
                scaled = tuple(
                    tuple(c / np.sqrt(N) for c in p) for p in points
                )
                finite, _ = correlation(
                    CorrelationQuery(
                        model=FubiniStudy(N, m), n=2, k=1, points=scaled,
                        volume="euclidean",
                    )
                )
                deviations.append(abs(finite / N ** 2 - limit_value))
            worst_rate = min(worst_rate, fit_exponent(levels, deviations))
    elapsed = time.time() - start
    ok = worst_rate >= 0.45 and elapsed < 60.0
    report(ok, 5, f"scaled two-point convergence, slowest fitted exponent = "
                  f"{worst_rate:.3f}, {elapsed:.1f}s")


def test_criterion_6_near_diagonal_kernel():
    grid = np.linspace(-1.4, 1.4, 5)
    points = [complex(x, y) for x in grid for y in grid]
    levels = [100, 400, 1600, 6400]
    deviations = []
    for N in levels:
        worst = 0.0
        for u in points:
            for v in points:
                finite = fs_scaled_szego(N, 1, [u], [v])
                limit = heisenberg_limit_kernel([u], 0.0, [v], 0.0)
                worst = max(worst, abs(finite - limit))
        deviations.append(worst)
    rate = fit_exponent(levels, deviations)
    ok = rate >= 0.45
    report(ok, 6, f"near-diagonal kernel sup deviation, fitted exponent = "
                  f"{rate:.3f}")


def test_criterion_7_large_r_decay():
    r = 5.0
    tail = kappa(r, 1, 1) - 1.0
    asym = closed_form.kappa_asymptote(r, 1, 1) - 1.0
    rel = abs(tail - asym) / abs(asym)
    ratios = [
        abs(kappa(rr, 1, 1) - 1.0) / (rr ** 4 * math.exp(-rr * rr))
        for rr in np.linspace(3.0, 6.0, 13)
    ]
    bounded = np.isfinite(ratios).all() and max(ratios) < 2.0
    t2 = kappa(6.0, 1, 1) - 1.0
    bound = decay_bound([(0.0,), (6.0,)])
    ok = rel < 1e-3 and bounded and abs(t2) <= 2.0 * bound
    report(ok, 7, f"large-r tail vs asymptote rel diff = {rel:.2e}, "
                  f"ratio bound = {max(ratios):.3f}, |T2(6)| = {abs(t2):.2e} "
                  f"<= 2x{bound:.2e}")


def test_criterion_8_monte_carlo_cross_check():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_sigma = 0.0
    for index in range(20):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(m, 2) + 1))
        dim = n * m  # one section's covariance; the k sections are independent
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lam = g @ g.conj().T + dim * np.eye(dim)
        exact, _ = expectation_det_product(lam, n, k, m)
        mc, err = expectation_det_product(
            lam, n, k, m, method="monte_carlo", samples=10 ** 6, seed=index
        )
        worst_sigma = max(worst_sigma, abs(mc - exact) / err)
    again = expectation_det_product(
        lam, n, k, m, method="monte_carlo", samples=10 ** 6, seed=index
    )
    deterministic = again == (mc, err)
    elapsed = time.time() - start
    ok = worst_sigma < 4.0 and deterministic and elapsed < 120.0
    report(ok, 8, f"MC vs exact on 20 random queries, worst deviation = "
                  f"{worst_sigma:.2f} sigma, deterministic rerun, {elapsed:.0f}s")


def test_criterion_9_empirical_pair_correlation():
    start = time.time()
    bins = np.arange(0.2, 3.0001, 0.2)
    cal = empirical.pair_correlation_estimate(
        500, 2000, 4.4, bins, seed=7, process="poisson"
    )
    cal_dev = np.abs(cal.g_estimate - 1.0) / cal.stderr
    hist = empirical.pair_correlation_estimate(500, 2000, 4.4, bins, seed=1)
    worst = 0.0
    checked = 0
    for center, g, count in zip(hist.bin_centers, hist.g_estimate, hist.counts):
        if count >= 1000:
            checked += 1
            worst = max(worst, abs(g - kappa(center, 1, 1)) / kappa(center, 1, 1))
    elapsed = time.time() - start
    ok = (
        checked > 0
        and worst <= 0.05
        and np.all(cal_dev < 4.0)
        and elapsed < 600.0
    )
    report(ok, 9, f"empirical pair correlation, {checked} bins with >= 1e3 "
                  f"pairs, worst relative error = {worst:.2%}, calibration max "
                  f"= {cal_dev.max():.2f} sigma, {elapsed:.0f}s")


def test_criterion_10_connected_algebra():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, 4, 5):
        kvalues = {}
        for size in range(2, n + 1):
            for subset in combinations(range(1, n + 1), size):
                kvalues[subset] = rng.uniform(0.5, 1.5)
        tvalues = {}
        for size in range(2, n + 1):
            for subset in combinations(range(1, n + 1), size):
                remap = {
                    tuple(sorted(subset).index(i) + 1 for i in key): v
                    for key, v in kvalues.items()
                    if set(key) <= set(subset)
                }
                tvalues[subset] = connected_correlations(remap, size)
        rebuilt = correlations_from_connected(tvalues, n)
        worst = max(worst, abs(rebuilt - kvalues[tuple(range(1, n + 1))]))
    k12, k13, k23, k123 = rng.uniform(0.5, 1.5, size=4)
    direct = connected_correlations(
        {(1, 2): k12, (1, 3): k13, (2, 3): k23, (1, 2, 3): k123}, 3
    )
    printed = k123 - k12 - k13 - k23 + 2.0
    identity = abs(direct - printed)
    ok = worst < 1e-12 and identity < 1e-14
    report(ok, 10, f"connected-correlation round trip, worst residual = "
                   f"{worst:.2e}, three-point identity residual = {identity:.2e}")
