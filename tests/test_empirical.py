"""Tests for polynomial sampling, root extraction, and the pair estimator."""

import numpy as np
import pytest
from scipy.special import comb

from zerocorr import empirical
from zerocorr.empirical import (
    CERTIFICATE_FACTORS,
    PolynomialSample,
    pair_correlation_estimate,
    polynomial_roots,
    sample_su2_polynomial,
)
from zerocorr.errors import DomainError, InsufficientDegree, RootFindingFailed, WindowTooLarge


class TestSampling:
    def test_degree_two_weights(self):
        # Divide out the Gaussian factors by replaying the generator.
        sample = sample_su2_polynomial(2, seed=0)
        rng = np.random.Generator(np.random.Philox(key=[0, 0]))
        g = rng.normal(scale=np.sqrt(0.5), size=(3, 2))
        c = g[:, 0] + 1j * g[:, 1]
        weights = sample.coeffs / c
        assert sample.degree == 2
        assert np.allclose(weights, [1.0, np.sqrt(2.0), 1.0], rtol=1e-12)

    def test_weights_match_binomial(self):
        # Divide out the Gaussian part by regenerating it with the same rng
        N = 6
        draws = 20000
        acc = np.zeros(N + 1)
        for i in range(draws):
            acc += np.abs(sample_su2_polynomial(N, seed=1, stream=i).coeffs) ** 2
        mean = acc / draws
        expected = comb(N, np.arange(N + 1))
        stderr = expected / np.sqrt(draws)
        assert np.all(np.abs(mean - expected) < 3.5 * stderr)

    def test_deterministic(self):
        a = sample_su2_polynomial(50, seed=3, stream=7)
        b = sample_su2_polynomial(50, seed=3, stream=7)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sample_su2_polynomial(50, seed=3, stream=8)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_degree_range(self):
        with pytest.raises(ValueError):
            sample_su2_polynomial(1, seed=0)
        with pytest.raises(ValueError):
            sample_su2_polynomial(2001, seed=0)


class TestRoots:
    def test_quadratic(self):
        sample = PolynomialSample(degree=2, coeffs=np.array([-1.0, 0.0, 1.0],
                                                            dtype=complex))
        roots = np.sort_complex(polynomial_roots(sample))
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_root_count_equals_degree(self):
        for stream in range(3):
            sample = sample_su2_polynomial(100, seed=5, stream=stream)
            assert len(polynomial_roots(sample)) == 100

    def test_residuals_small(self):
        # Polishing succeeds on both small- and large-modulus roots; the
        # residual contract is enforced inside polynomial_roots.
        sample = sample_su2_polynomial(500, seed=9)
        roots = polynomial_roots(sample)
        assert len(roots) == 500
        assert np.abs(roots).max() > 1.0  # both charts exercised

    def test_leading_zero_reduces_degree(self):
        coeffs = np.array([-1.0, 0.0, 1.0, 0.0], dtype=complex)
        sample = PolynomialSample(degree=3, coeffs=coeffs)
        assert len(polynomial_roots(sample)) == 2


def assert_same_roots(got, expected, tol):
    """Equal as sets: same count, and each root has a partner within tol."""
    assert len(got) == len(expected)
    if len(got):
        gaps = np.abs(got[:, None] - expected[None, :])
        assert gaps.min(axis=0).max() <= tol
        assert gaps.min(axis=1).max() <= tol


def on_certificate_circles(sample, radius):
    """The sample times (z - r_i) with one root on every certificate circle."""
    coeffs = sample.coeffs
    for i, factor in enumerate(CERTIFICATE_FACTORS):
        root = factor * radius * np.exp(1j * (0.7 + 2.0 * i))
        coeffs = np.convolve(coeffs, [-root, 1.0])  # lowest power first
    return PolynomialSample(degree=len(coeffs) - 1, coeffs=coeffs)


class TestWindowRoots:
    @pytest.mark.parametrize("N, radius", [
        (500, np.tan(4.4 / np.sqrt(500))),   # criterion-9 window
        (25, np.tan(1.0 / np.sqrt(25))),     # least degree for window 1: untruncated
        (30, 0.8),                           # certificate circles beyond |z| = 1
        (200, np.tan(2.0 / np.sqrt(200))),
    ])
    def test_matches_full_solve(self, N, radius):
        for stream in range(20):
            sample = sample_su2_polynomial(N, seed=12, stream=stream)
            full = polynomial_roots(sample)
            window = polynomial_roots(sample, radius=radius)
            assert np.all(np.abs(window) <= radius)
            assert_same_roots(window, full[np.abs(full) <= radius], 1e-12)
            # a certificate, tried in order, holds and gives exactly these
            # roots, so no fallback made them
            for factor in CERTIFICATE_FACTORS:
                certified = empirical._certified_window_roots(
                    sample.coeffs[::-1], radius, factor, 3
                )
                if certified is not None:
                    break
            assert certified is not None
            assert_same_roots(certified, window, 0.0)

    def test_root_on_certificate_circle_falls_back(self):
        radius = np.tan(4.4 / np.sqrt(500))
        sample = on_certificate_circles(sample_su2_polynomial(500, seed=3), radius)
        poly = sample.coeffs[::-1]
        for factor in CERTIFICATE_FACTORS:
            assert empirical._certified_window_roots(poly, radius, factor, 3) is None
        full = polynomial_roots(sample)
        assert_same_roots(polynomial_roots(sample, radius=radius),
                          full[np.abs(full) <= radius], 0.0)

    def test_fallback_raises_like_full_solve(self):
        # Unpolished companion roots of a degree-500 polynomial miss the
        # residual certificate; the window path certifies its own roots,
        # and only when every certificate fails does the full solve's
        # failure surface.
        radius = np.tan(4.4 / np.sqrt(500))
        sample = sample_su2_polynomial(500, seed=0)
        with pytest.raises(RootFindingFailed):
            polynomial_roots(sample, polish_steps=0)
        assert len(polynomial_roots(sample, polish_steps=0, radius=radius)) > 0
        blocked = on_certificate_circles(sample, radius)
        with pytest.raises(RootFindingFailed):
            polynomial_roots(blocked, polish_steps=0)
        with pytest.raises(RootFindingFailed):
            polynomial_roots(blocked, polish_steps=0, radius=radius)

    def test_missed_eigenvalue_fails_certificate(self, monkeypatch):
        radius = np.tan(4.4 / np.sqrt(500))
        poly = sample_su2_polynomial(500, seed=3).coeffs[::-1]
        assert empirical._certified_window_roots(poly, radius, 1.5, 3) is not None
        solve = np.roots

        def drop_smallest(p):
            roots = solve(p)
            return roots[np.argsort(np.abs(roots))[1:]]

        monkeypatch.setattr(np, "roots", drop_smallest)
        assert empirical._certified_window_roots(poly, radius, 1.5, 3) is None

    def test_tail_enters_residual_certificate(self, monkeypatch):
        # A coarse truncation: the roots polish to tiny residuals against
        # P_d, but the tail bound on the full polynomial exceeds the
        # residual certificate, so they are refused.
        radius = np.tan(4.4 / np.sqrt(500))
        poly = sample_su2_polynomial(500, seed=0).coeffs[::-1]
        factor = CERTIFICATE_FACTORS[0]
        assert empirical._certified_window_roots(poly, radius, factor, 3) is not None
        ratios = []
        polish = empirical._polish

        def recording_polish(coeffs, roots, steps):
            best, res, bound = polish(coeffs, roots, steps)
            ratios.append((res / bound).max())
            return best, res, bound

        monkeypatch.setattr(empirical, "_polish", recording_polish)
        monkeypatch.setattr(empirical, "TAIL_RATIO", 1e-6)
        assert empirical._certified_window_roots(poly, radius, factor, 3) is None
        assert ratios and max(ratios) < 1e-3 * empirical.RESIDUAL_RATIO
        # only the residual certificate refused them
        monkeypatch.setattr(empirical, "RESIDUAL_RATIO", 1.0)
        assert empirical._certified_window_roots(poly, radius, factor, 3) is not None

    def test_bad_radius(self):
        sample = sample_su2_polynomial(20, seed=0)
        for radius in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                polynomial_roots(sample, radius=radius)


class TestPairEstimator:
    def test_window_roots_give_full_solve_histogram(self, monkeypatch):
        bins = np.arange(0.2, 3.0001, 0.2)
        window = pair_correlation_estimate(500, 40, 4.4, bins, seed=5)
        chart_window = np.tan(4.4 / np.sqrt(500))

        def full_solve(sample, radius):
            roots = polynomial_roots(sample)
            return roots[np.abs(roots) <= chart_window]

        monkeypatch.setattr(empirical, "polynomial_roots", full_solve)
        full = pair_correlation_estimate(500, 40, 4.4, bins, seed=5)
        assert np.array_equal(window.counts, full.counts)
        assert np.array_equal(window.count_sumsq, full.count_sumsq)
        assert window.total_roots == full.total_roots == 500 * 40

    def test_poisson_calibration(self):
        bins = np.arange(0.4, 2.4001, 0.4)
        hist = pair_correlation_estimate(
            500, 4000, 4.4, bins, seed=11, process="poisson"
        )
        dev = np.abs(hist.g_estimate - 1.0) / hist.stderr
        assert np.all(dev < 4.0)

    def test_deterministic(self):
        bins = np.array([0.3, 0.6, 0.9])
        a = pair_correlation_estimate(64, 30, 1.5, bins, seed=2)
        b = pair_correlation_estimate(64, 30, 1.5, bins, seed=2)
        assert np.array_equal(a.counts, b.counts)
        assert a.total_roots == b.total_roots

    def test_total_roots_counts_degree(self):
        bins = np.array([0.3, 0.6])
        hist = pair_correlation_estimate(64, 25, 1.5, bins, seed=4)
        assert hist.total_roots == 64 * 25

    def test_short_distance_repulsion(self):
        bins = np.array([0.2, 0.4])
        hist = pair_correlation_estimate(200, 400, 2.8, bins, seed=6)
        assert hist.counts.sum() > 0
        assert hist.g_estimate[0] < 0.25

    def test_window_too_large(self):
        bins = np.array([0.5, 1.0])
        with pytest.raises(WindowTooLarge):
            pair_correlation_estimate(2000, 10, 6.0, bins, seed=0)

    def test_bins_exceed_window(self):
        bins = np.array([0.5, 3.0])
        with pytest.raises(WindowTooLarge):
            pair_correlation_estimate(500, 10, 2.0, bins, seed=0)

    def test_empty_core(self):
        bins = np.array([0.5, 2.0])
        with pytest.raises(WindowTooLarge):
            pair_correlation_estimate(500, 10, 2.0, bins, seed=0)

    def test_insufficient_degree(self):
        bins = np.array([0.5, 1.0])
        with pytest.raises(InsufficientDegree):
            pair_correlation_estimate(100, 10, 4.4, bins, seed=0)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            pair_correlation_estimate(500, 10, 4.4, np.array([1.0, 0.5]), seed=0)

    @pytest.mark.parametrize("window", [0.0, -1.0, np.inf, np.nan])
    def test_bad_window(self, window):
        with pytest.raises(DomainError):
            pair_correlation_estimate(500, 10, window, np.array([0.5, 1.0]), seed=0)

    @pytest.mark.parametrize("bins", [[0.2, np.nan], [np.nan, 1.0], [0.2, np.inf], [-2.0, 1.0]])
    def test_bins_finite_and_non_negative(self, bins):
        with pytest.raises(DomainError):
            pair_correlation_estimate(500, 10, 4.4, np.array(bins), seed=0)

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_needs_two_samples(self, samples):
        with pytest.raises(DomainError):
            pair_correlation_estimate(500, samples, 4.4, np.array([0.5, 1.0]), seed=0)
