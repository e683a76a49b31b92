"""Tests for the closed-form pair correlations and connected-correlation algebra."""

import math
from itertools import product

import numpy as np
import pytest

from zerocorr.closed_form import (
    SERIES_SWITCH_R_K2,
    SERIES_SWITCH_R_K22,
    SERIES_SWITCH_T_K1,
    _connected,
    _edge_weight,
    connected_correlations,
    correlations_from_connected,
    decay_bound,
    density,
    kappa,
    kappa_asymptote,
    kappa_series,
)
from zerocorr.errors import DomainError, MissingSubset, SizeLimitExceeded
from zerocorr.kernels import FubiniStudy, HeisenbergLevel, HeisenbergLimit

# High-precision reference values computed offline with 50-digit arithmetic.
ORACLE = {
    (0.5, 1, 1): 0.1245673249347233869,
    (1.0, 1, 1): 0.4735538040324709659,
    (1.0, 2, 1): 0.9900283607735480064,
    (2.0, 3, 1): 0.9923497709346026002,
    (1.0, 2, 2): 0.7883928795667948522,
    (0.5, 3, 2): 7.191060383407612744,
}


class TestKappaValues:
    @pytest.mark.parametrize("key", sorted(ORACLE))
    def test_oracle_values(self, key):
        r, m, k = key
        assert abs(kappa(r, m, k) - ORACLE[key]) < 1e-14 * max(1.0, ORACLE[key])

    def test_short_distance_repulsion_m1(self):
        # kappa_11 vanishes quadratically in the squared distance
        for r in (0.05, 0.1, 0.2):
            assert abs(kappa(r, 1, 1) - r * r / 2.0) < r ** 6

    def test_long_distance_limit(self):
        for m, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert abs(kappa(6.0, m, k) - 1.0) < 1e-10

    def test_k2_small_r_divergence(self):
        # For m >= 3 two sections nearly vanish together with r^-4 density
        # enhancement at short range.
        r = 0.05
        lead = (3 - 2) / 3 * r ** -4
        assert kappa(r, 3, 2) == pytest.approx(lead, rel=0.02)

    def test_k22_short_limit(self):
        assert abs(kappa(1e-3, 2, 2) - 0.75) < 1e-4


class TestBranchConsistency:
    def test_k1_branches_agree_at_switch(self):
        for m in (1, 2, 3):
            r = math.sqrt(2.0 * SERIES_SWITCH_T_K1)
            for offset in (-1e-4, 1e-4):
                a = kappa(r + offset, m, 1)
                b = kappa_series(r + offset, m, 1)
                assert abs(a - b) < 1e-9

    def test_k22_branches_agree_at_switch(self):
        r = SERIES_SWITCH_R_K22
        for offset in (-1e-3, 1e-3):
            a = kappa(r + offset, 2, 2)
            b = kappa_series(r + offset, 2, 2)
            assert abs(a - b) < 1e-9

    def test_k2_branches_agree_at_switch(self):
        for m in (3, 4):
            r = SERIES_SWITCH_R_K2
            for offset in (-1e-3, 1e-3):
                a = kappa(r + offset, m, 2)
                b = kappa_series(r + offset, m, 2)
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestAsymptotes:
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_matches_at_large_r(self, m, k):
        for r in (4.0, 5.0):
            a = kappa(r, m, k)
            b = kappa_asymptote(r, m, k)
            assert abs(a - b) < 1e-5 * abs(a - 1.0) + 1e-14

    def test_m1_explicit_form(self):
        r = 5.0
        u = r * r
        expected = 1.0 + (u * u - 4 * u + 2) * math.exp(-u)
        assert kappa_asymptote(r, 1, 1) == pytest.approx(expected, rel=1e-14)

    def test_asymptote_remainder_order(self):
        # The residual after the two-term asymptote shrinks like e^{-2r^2}
        # relative to e^{-r^2}.
        res = [
            abs(kappa(r, 2, 1) - kappa_asymptote(r, 2, 1)) * math.exp(r * r)
            for r in (3.0, 3.5)
        ]
        assert res[1] < res[0] * math.exp(-(3.5 ** 2 - 3.0 ** 2)) * 10.0


    def test_no_overflow_past_switch(self):
        # The closed forms overflow (or give NaN) here; the asymptote is exact
        # to rounding.
        for r, m, k in [(21.76, 3, 1), (21.8, 1, 1), (13.35, 2, 2)]:
            assert kappa(r, m, k) == kappa_asymptote(r, m, k)
        for r in np.linspace(5.0, 40.0, 71):
            for m, k in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
                value = kappa(r, m, k)
                assert math.isfinite(value)
                assert abs(value - kappa_asymptote(r, m, k)) <= 1e-6
        assert kappa(1e200, 2, 2) == 1.0  # r^2 overflows to inf


class TestDensities:
    def test_fs(self):
        assert density(FubiniStudy(10, 1), 1) == pytest.approx(10 / math.pi)
        assert density(FubiniStudy(5, 3), 2) == pytest.approx(
            25 * 6 / math.pi ** 2
        )

    def test_heisenberg_level(self):
        assert density(HeisenbergLevel(4, 2), 2) == pytest.approx(
            16 * 2 / math.pi ** 2
        )

    def test_limit(self):
        assert density(HeisenbergLimit(3), 3) == pytest.approx(6 / math.pi ** 3)

    def test_codimension_range(self):
        with pytest.raises(DomainError):
            density(HeisenbergLimit(2), 3)


class TestDomainChecks:
    def test_negative_distance(self):
        with pytest.raises(DomainError):
            kappa(-1.0, 1, 1)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_distance(self, r):
        with pytest.raises(DomainError):
            kappa(r, 1, 1)

    def test_k2_requires_m2(self):
        with pytest.raises(DomainError):
            kappa(1.0, 1, 2)

    def test_k_range(self):
        with pytest.raises(DomainError):
            kappa(1.0, 3, 3)

    @pytest.mark.parametrize("k,m", [(1, 1), (1, 4), (2, 2), (2, 3)])
    @pytest.mark.parametrize("r", [1e20, 1e30, 1e200])
    def test_series_at_huge_distance(self, r, k, m):
        # The truncated series is returned while it is a finite float and
        # raises DomainError once it overflows, never NaN or OverflowError.
        if (k, m) == (2, 3) and r < 1e100:
            # leading term -(m-2)(m+4)(m+3) r^6 / (720 (m-1) m^2)
            expected = -42.0 / 12960.0 * r ** 6
            assert kappa_series(r, m, k) == pytest.approx(expected, rel=1e-12)
        else:
            with pytest.raises(DomainError):
                kappa_series(r, m, k)

    def test_series_at_tiny_distance(self):
        # r^2 underflows to 0 and the 1/t term has no finite value
        with pytest.raises(DomainError):
            kappa_series(1e-200, 2, 1)


class TestConnectedAlgebra:
    def test_two_point(self):
        kvalues = {(1, 2): 0.6}
        assert connected_correlations(kvalues, 2) == pytest.approx(0.6 - 1.0)

    def test_three_point_identity(self):
        # T3 = K123 - K12 - K13 - K23 + 2 with unit one-point values
        kvalues = {(1, 2): 0.7, (1, 3): 0.8, (2, 3): 0.9, (1, 2, 3): 0.55}
        expected = 0.55 - 0.7 - 0.8 - 0.9 + 2.0
        assert connected_correlations(kvalues, 3) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        from itertools import combinations

        rng = np.random.default_rng(n)
        kvalues = {}
        for size in range(2, n + 1):
            for subset in combinations(range(1, n + 1), size):
                kvalues[subset] = rng.uniform(0.5, 1.5)
        tvalues = {}
        for size in range(2, n + 1):
            for subset in combinations(range(1, n + 1), size):
                sub_k = {
                    key: kvalues[key]
                    for key in kvalues
                    if set(key) <= set(subset)
                }
                remap = {
                    tuple(sorted(subset).index(i) + 1 for i in key): v
                    for key, v in sub_k.items()
                }
                tvalues[subset] = connected_correlations(remap, size)
        remapped_t = {key: tvalues[key] for key in tvalues if len(key) <= n}
        rebuilt = correlations_from_connected(remapped_t, n)
        assert abs(rebuilt - kvalues[tuple(range(1, n + 1))]) < 1e-12

    def test_missing_subset(self):
        with pytest.raises(MissingSubset):
            connected_correlations({(1, 2): 0.5}, 3)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            connected_correlations({}, 6)


class TestDecayBound:
    def test_pair_bound(self):
        # For two points the best multigraph is the double edge when the
        # edge weight is below one.
        r = 3.0
        w = r * r * math.exp(-r * r / 2.0)
        pts = [(0.0,), (r,)]
        assert decay_bound(pts) == pytest.approx(w * w, rel=1e-12)

    def test_pair_bound_at_weight_peak(self):
        # The edge weight r^2 e^{-r^2/2} peaks at 2/e < 1, so the double
        # edge is still the best multigraph.
        r = math.sqrt(2.0)
        w = r * r * math.exp(-1.0)
        pts = [(0.0,), (r,)]
        assert w < 1.0
        assert decay_bound(pts) == pytest.approx(w * w, rel=1e-12)

    def test_triangle_bound(self):
        r = 2.5
        w = r * r * math.exp(-r * r / 2.0)
        pts = [(0.0, 0.0), (r, 0.0), (r / 2, r * math.sqrt(3) / 2)]
        # equilateral triangle: the 3-cycle beats heavier multigraphs
        assert decay_bound(pts) == pytest.approx(w ** 3, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5])
    def test_regular_polygon_is_a_cycle(self, n):
        # Sides of length 2 outweigh the diagonals (r^2 e^{-r^2/2} falls past
        # sqrt(2)), and an admissible multigraph has at least n edges.
        side = 2.0
        radius = side / (2 * math.sin(math.pi / n))
        pts = [(radius * np.exp(2j * math.pi * p / n),) for p in range(n)]
        assert decay_bound(pts) == pytest.approx(_edge_weight(side) ** n, rel=1e-12)

    @pytest.mark.parametrize("n,configs", [(2, 300), (3, 300), (4, 2)])
    def test_matches_search_over_all_multiplicities(self, n, configs):
        rng = np.random.default_rng(n)
        for _ in range(configs):
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.3, 3.0)
            pts = [(z,) for z in pts[:, 0] + 1j * pts[:, 1]]
            assert decay_bound(pts) == full_search_bound(pts)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            decay_bound([(0.0,)] * 6)


def full_search_bound(points):
    """decay_bound over every multiplicity 0..2n per edge, not only 0..2."""
    points = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = [_edge_weight(np.linalg.norm(points[i] - points[j])) for i, j in pairs]
    best = 0.0
    for mult in product(range(2 * n + 1), repeat=len(pairs)):
        if not 2 <= sum(mult) <= 2 * n:
            continue
        degree = [0] * n
        for (i, j), e in zip(pairs, mult):
            degree[i] += e
            degree[j] += e
        if min(degree) < 2 or not _connected(n, pairs, mult):
            continue
        value = 1.0
        for w, e in zip(weights, mult):
            value *= w ** e
        best = max(best, value)
    return best
