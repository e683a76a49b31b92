"""Tests for the jet-covariance correlation pipeline."""

import time

import numpy as np
import pytest

from zerocorr import closed_form, kac_rice
from zerocorr.errors import DomainError, NearSingular, SizeLimitExceeded
from zerocorr.kac_rice import (
    CorrelationQuery,
    CovarianceBlocks,
    assemble_blocks,
    correlation,
    jet_covariance,
    normalized_correlation,
    one_point_density,
)
from zerocorr.kernels import (
    FubiniStudy,
    HeisenbergLevel,
    HeisenbergLimit,
    fs_metric,
    kernel_jet,
)


def limit_query(points, k=1, **kwargs):
    m = len(np.atleast_1d(points[0]))
    return CorrelationQuery(
        model=HeisenbergLimit(m), n=len(points), k=k, points=tuple(points), **kwargs
    )


def collinear(n, m, r):
    return tuple(tuple([p * r] + [0.0] * (m - 1)) for p in range(n))


def ordered_pair_blocks(query):
    """Reference assembly: one jet for every ordered pair of points, n^2 in all."""
    model = query.model
    n, m = query.n, model.m
    points = model._centered(query.points, query.volume)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n * m), dtype=complex)
    c = np.zeros((n * m, n * m), dtype=complex)
    for p in range(n):
        for pp in range(n):
            jet = kernel_jet(model, points[p], points[pp])
            a[p, pp] = jet.s
            b[p, pp * m:(pp + 1) * m] = jet.grad
            c[p * m:(p + 1) * m, pp * m:(pp + 1) * m] = jet.hess
    return CovarianceBlocks(a=a, b=b, c=c)


ASSEMBLY_MODELS = [FubiniStudy(9, 1), FubiniStudy(40, 2), FubiniStudy(5, 3),
                   HeisenbergLevel(151, 1), HeisenbergLevel(3, 2), HeisenbergLimit(4)]


def cluster(n, m, seed):
    """n points near the origin of C^m, pairwise at least 0.5 apart."""
    rng = np.random.default_rng([n, m, seed])
    while True:
        pts = [(rng.normal(size=m) + 1j * rng.normal(size=m)) * 0.8 for _ in range(n)]
        if all(np.linalg.norm(a - b) >= 0.5 for i, a in enumerate(pts) for b in pts[i + 1:]):
            return tuple(tuple(p) for p in pts)


class TestPairAgainstClosedForm:
    @pytest.mark.parametrize(
        "m,k,r", [(1, 1, 1.0), (2, 1, 0.5), (3, 1, 2.0), (2, 2, 1.0), (3, 2, 0.5)]
    )
    def test_matches_kappa(self, m, k, r):
        value, _ = normalized_correlation(limit_query(collinear(2, m, r), k=k))
        assert abs(value - closed_form.kappa(r, m, k)) < 1e-10

    def test_depends_only_on_distance(self):
        # Same separation along a rotated direction in C^2
        r = 1.3
        v = np.array([0.6 + 0.8j, 0.0]) * r / 1.0
        a, _ = normalized_correlation(limit_query([(0, 0), tuple(v)]))
        b, _ = normalized_correlation(limit_query(collinear(2, 2, r)))
        assert np.isclose(a, b, rtol=1e-10)


class TestDensities:
    @pytest.mark.parametrize("N", [5, 50])
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_fs_one_point(self, N, m, k):
        query = CorrelationQuery(
            model=FubiniStudy(N, m), n=1, k=k, points=(tuple([0.0] * m),)
        )
        value, _ = correlation(query)
        expected = one_point_density(FubiniStudy(N, m), k)
        assert np.isclose(value, expected, rtol=1e-10)

    def test_fs_density_point_independent(self):
        # With the metric volume the density is constant over the chart.
        m = 2
        for point in [(0.0, 0.0), (0.7, -0.2j), (1.5 + 0.5j, 0.3)]:
            query = CorrelationQuery(
                model=FubiniStudy(12, m), n=1, k=1, points=(point,)
            )
            value, _ = correlation(query)
            assert np.isclose(value, one_point_density(FubiniStudy(12, m), 1),
                              rtol=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fs_euclidean_density_carries_metric_determinant(self, m):
        # With k = m the zero set is a point, so per unit coordinate volume
        # its density is the metric density times det(fs_metric).
        model = FubiniStudy(7, m)
        for point in [np.zeros(m), np.linspace(0.3, -1.1j, m), np.full(m, 40.0 - 25.0j)]:
            query = CorrelationQuery(model=model, n=1, k=m, points=(tuple(point),),
                                     volume="euclidean")
            expected = one_point_density(model, m) * np.linalg.det(fs_metric(point)).real
            assert np.isclose(correlation(query)[0], expected, rtol=1e-10)

    def test_limit_one_point(self):
        for m in (1, 2, 3):
            query = CorrelationQuery(
                model=HeisenbergLimit(m), n=1, k=1, points=(tuple([0.0] * m),)
            )
            value, _ = correlation(query)
            assert np.isclose(value, m / np.pi, rtol=1e-12)


class TestInvariances:
    def test_translation(self):
        shift = np.array([0.4 - 0.9j])
        pts = [np.array([0.0]), np.array([1.2])]
        a, _ = normalized_correlation(limit_query(pts))
        b, _ = normalized_correlation(limit_query([p + shift for p in pts]))
        assert np.isclose(a, b, rtol=1e-10)

    def test_translation_far_from_origin(self):
        # A cluster that hypothesis found: at |z| ~ 967 the flat pair phases
        # round differently in s(z, w) and s(w, z) unless the jets are taken
        # with the first point at the origin, and the jet covariance fails its
        # Hermitian check.  The gap left is the rounding of the shifted input.
        # The flat coordinate frame is the same everywhere, so per unit
        # coordinate volume the points are translated too, to the same value.
        model = HeisenbergLevel(151, 1)
        pts = [np.array([c]) / np.sqrt(151) for c in (0.0, 0.5, 0.25 + 0.3125j)]
        base, _ = normalized_correlation(CorrelationQuery(model, 3, 1, tuple(pts)))
        shifted = tuple(p - 967.0 for p in pts)
        moved, _ = normalized_correlation(CorrelationQuery(model, 3, 1, shifted))
        coordinate, _ = normalized_correlation(
            CorrelationQuery(model, 3, 1, shifted, volume="euclidean")
        )
        assert np.isclose(moved, base, rtol=1e-10, atol=0.0)
        assert coordinate == moved

    def test_rotation(self):
        phase = np.exp(0.7j)
        pts = [np.array([0.0]), np.array([1.2])]
        a, _ = normalized_correlation(limit_query(pts))
        b, _ = normalized_correlation(limit_query([p * phase for p in pts]))
        assert np.isclose(a, b, rtol=1e-10)

    def test_point_permutation(self):
        pts = collinear(3, 1, 0.9)
        a, _ = correlation(limit_query(pts))
        b, _ = correlation(limit_query(pts[::-1]))
        assert np.isclose(a, b, rtol=1e-10)

    def test_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pts = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            value, _ = correlation(limit_query([tuple(p) for p in pts]))
            assert value > 0


class TestLevelKernel:
    def test_heisenberg_level_matches_limit(self):
        # The level-N flat kernel is the limit kernel in rescaled
        # coordinates, so normalized correlations agree exactly.
        r = 1.1
        for N in (1, 4):
            lvl = CorrelationQuery(
                model=HeisenbergLevel(N, 1), n=2, k=1,
                points=((0.0,), (r / np.sqrt(N),)),
            )
            a, _ = normalized_correlation(lvl)
            b, _ = normalized_correlation(limit_query(collinear(2, 1, r)))
            assert np.isclose(a, b, rtol=1e-10)


class TestThreePoint:
    def test_far_apart_decouples(self):
        pts = [(0.0,), (8.0,), (16.0,)]
        value, _ = normalized_correlation(limit_query(pts))
        assert abs(value - 1.0) < 1e-10

    def test_mixed_separation_factorizes(self):
        # One far-away point multiplies the pair correlation by ~1.
        r = 1.0
        pair, _ = normalized_correlation(limit_query(collinear(2, 1, r)))
        triple, _ = normalized_correlation(
            limit_query([(0.0,), (r,), (20.0,)])
        )
        assert abs(triple - pair) < 1e-9


class TestMonteCarloRoute:
    def test_within_error_bars(self):
        query = limit_query(collinear(2, 1, 1.0))
        exact, _ = normalized_correlation(query)
        mc_query = CorrelationQuery(
            model=HeisenbergLimit(1), n=2, k=1, points=collinear(2, 1, 1.0),
            method="monte_carlo", samples=300000, seed=3,
        )
        mc, err = normalized_correlation(mc_query)
        assert err > 0
        assert abs(mc - exact) < 4.0 * err

    def test_largest_exact_size_runs(self):
        # (n, k, m) = (2, 4, 4): k * n = 8 and m = 4, the exact cap.
        points = ((0.0, 0.0, 0.0, 0.0), (0.8, 0.3j, 0.0, 0.0))
        start = time.perf_counter()
        exact, _ = correlation(CorrelationQuery(HeisenbergLimit(4), 2, 4, points))
        elapsed = time.perf_counter() - start
        mc, err = correlation(CorrelationQuery(
            HeisenbergLimit(4), 2, 4, points,
            method="monte_carlo", samples=200000, seed=5,
        ))
        assert elapsed < 10.0
        assert abs(mc - exact) < 5.0 * err

    # Every (n, k) that the exact route gained when the per-query caps went
    # (k = 1 with n = 4-8, k = 2 with n = 3-4), with m cycling through 1-4.
    # The determinant product is heavy-tailed at n >= 6, so those sizes take
    # 2^20 samples.
    @pytest.mark.parametrize(
        "n,k,m", [(4, 1, 1), (5, 1, 2), (6, 1, 3), (7, 1, 4), (8, 1, 1), (3, 2, 2), (4, 2, 3)]
    )
    def test_newly_admitted_sizes(self, n, k, m):
        points = cluster(n, m, seed=0)
        exact, _ = correlation(CorrelationQuery(HeisenbergLimit(m), n, k, points))
        mc, err = correlation(CorrelationQuery(
            HeisenbergLimit(m), n, k, points, method="monte_carlo",
            samples=2 ** 20 if n >= 6 else 2 ** 18, seed=0,
        ))
        assert abs(mc - exact) < 4.0 * err


class TestJetCovariance:
    def test_hermitian(self):
        blocks = assemble_blocks(limit_query(collinear(2, 2, 0.8)))
        lam = jet_covariance(blocks)
        assert np.allclose(lam, lam.conj().T)
        assert np.all(np.linalg.eigvalsh(lam) > 0)

    def test_asymmetry_is_near_singular(self):
        # Hermitian blocks leave only a failed solve to break the symmetry.
        blocks = CovarianceBlocks(a=np.eye(1), b=np.zeros((1, 2)),
                                  c=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NearSingular):
            jet_covariance(blocks)


class TestAssembly:
    @pytest.mark.parametrize("volume", ["metric", "euclidean"])
    @pytest.mark.parametrize("model", ASSEMBLY_MODELS, ids=repr)
    def test_blocks_hermitian(self, model, volume):
        # Off the diagonal blocks, the (p', p) entries are the conjugates of
        # the (p, p') ones.  The diagonal blocks of c are the jets at z = w,
        # Hermitian to rounding: exactly for the flat models.
        m = model.m
        points = tuple(np.array(p) / np.sqrt(model.N) for p in cluster(4, m, seed=1))
        blocks = assemble_blocks(CorrelationQuery(model, 4, 1, points, volume=volume))
        assert np.array_equal(blocks.a, blocks.a.conj().T)
        gap = blocks.c - blocks.c.conj().T
        for p in range(4):
            diagonal = gap[p * m:(p + 1) * m, p * m:(p + 1) * m]
            assert np.abs(diagonal).max() <= 1e-15 * model.N
            diagonal[...] = 0.0
        assert not gap.any()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_one_jet_per_point_pair(self, n, monkeypatch):
        calls = []

        def counting(model, z, w):
            calls.append((z, w))
            return kernel_jet(model, z, w)

        monkeypatch.setattr(kac_rice, "kernel_jet", counting)
        correlation(limit_query(collinear(n, 2, 0.7)))
        assert len(calls) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("volume", ["metric", "euclidean"])
    @pytest.mark.parametrize("model", ASSEMBLY_MODELS, ids=repr)
    def test_matches_ordered_pair_assembly(self, model, volume, n, monkeypatch):
        rng = np.random.default_rng([model.N, model.m, n])
        shift = 3.0 * (rng.normal(size=model.m) + 1j * rng.normal(size=model.m))
        points = tuple((np.array(p) + shift) / np.sqrt(model.N)
                       for p in cluster(n, model.m, seed=int(rng.integers(100))))
        query = CorrelationQuery(model, n, 1, points, volume=volume)
        value, _ = correlation(query)
        monkeypatch.setattr(kac_rice, "assemble_blocks", ordered_pair_blocks)
        expected, _ = correlation(query)
        assert value == pytest.approx(expected, rel=1e-13)


class TestValidation:
    def test_codimension_range(self):
        with pytest.raises(ValueError):
            CorrelationQuery(model=HeisenbergLimit(1), n=1, k=2, points=((0.0,),))

    def test_point_count(self):
        with pytest.raises(ValueError):
            CorrelationQuery(model=HeisenbergLimit(1), n=2, k=1, points=((0.0,),))

    def test_exact_size_caps(self):
        # The exact route takes k * n <= 8; the query itself has no size cap.
        for m, n, k in [(1, 9, 1), (3, 3, 3), (4, 5, 2)]:
            query = CorrelationQuery(HeisenbergLimit(m), n, k, collinear(n, m, 1.0))
            with pytest.raises(SizeLimitExceeded):
                correlation(query)

    @pytest.mark.parametrize("point", [(0.0,), (0.0, 1.0, 2.0), ((0.0, 1.0),) * 2])
    def test_point_dimension(self, point):
        with pytest.raises(DomainError):
            CorrelationQuery(model=HeisenbergLimit(2), n=1, k=1, points=(point,))

    @pytest.mark.parametrize("model", [FubiniStudy(5, 1), HeisenbergLimit(1)], ids=repr)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_points(self, model, bad):
        with pytest.raises(DomainError):
            CorrelationQuery(model=model, n=2, k=1, points=((0.0,), (bad,)))

    def test_no_points(self):
        with pytest.raises(DomainError):
            CorrelationQuery(model=HeisenbergLimit(1), n=0, k=1, points=())

    def test_near_coincident_points(self):
        with pytest.raises(NearSingular):
            CorrelationQuery(
                model=HeisenbergLimit(1), n=2, k=1,
                points=((0.0,), (1e-8,)),
            )

    def test_volume_choice(self):
        with pytest.raises(ValueError):
            CorrelationQuery(
                model=HeisenbergLimit(1), n=1, k=1, points=((0.0,),),
                volume="spherical",
            )
