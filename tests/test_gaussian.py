"""Tests for Wick moments, Gaussian sampling, and the determinant expectation."""

import math
from itertools import permutations, product

import numpy as np
import pytest

from zerocorr.errors import DomainError, SizeLimitExceeded
from zerocorr.gaussian import (
    MC_CHUNK,
    GaussianSpec,
    _det_product_samples,
    expectation_det_product,
    sample_complex_gaussian,
    wick_mixed_moment,
)
from zerocorr.linalg import permanent


def random_hpd(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T + n * np.eye(n)


def expand_sections(lam, n, k, m):
    """The joint covariance lam (x) I_k of k independent sections, indexed (p, j, q)."""
    lam4 = lam.reshape(n, m, n, m)
    full = np.einsum("pqrs,jl->pjqrls", lam4, np.eye(k))
    return full.reshape(n * k * m, n * k * m)


class TestWickMoment:
    def test_second_moment(self):
        spec = GaussianSpec(np.array([[3.0]]))
        assert wick_mixed_moment(spec, [0], [0]) == pytest.approx(3.0)

    def test_fourth_moment_identity(self):
        # E|z|^4 = 2 for a standard circular Gaussian
        spec = GaussianSpec(np.eye(1))
        assert wick_mixed_moment(spec, [0, 0], [0, 0]) == pytest.approx(2.0)

    def test_unbalanced_vanishes(self):
        spec = GaussianSpec(np.eye(2))
        assert wick_mixed_moment(spec, [0, 1], [0]) == 0.0

    def test_empty_moment(self):
        spec = GaussianSpec(np.eye(2))
        assert wick_mixed_moment(spec, [], []) == pytest.approx(1.0)

    def test_permutation_symmetry(self):
        spec = GaussianSpec(random_hpd(4, seed=0))
        base = wick_mixed_moment(spec, [0, 1, 2], [1, 3, 0])
        swapped = wick_mixed_moment(spec, [2, 0, 1], [0, 1, 3])
        assert np.isclose(base, swapped, rtol=1e-12)

    def test_matches_monte_carlo(self):
        spec = GaussianSpec(random_hpd(3, seed=1))
        draws = sample_complex_gaussian(spec, 400000, seed=7)
        emp = np.mean(draws[:, 0] * draws[:, 1] * draws[:, 0].conj() * draws[:, 2].conj())
        exact = wick_mixed_moment(spec, [0, 1], [0, 2])
        assert abs(emp - exact) < 0.05 * abs(exact)

    def test_order_cap(self):
        spec = GaussianSpec(np.eye(12))
        with pytest.raises(SizeLimitExceeded):
            wick_mixed_moment(spec, list(range(11)), list(range(11)))


class TestSampling:
    def test_deterministic(self):
        spec = GaussianSpec(random_hpd(3, seed=2))
        a = sample_complex_gaussian(spec, 1000, seed=3)
        b = sample_complex_gaussian(spec, 1000, seed=3)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        spec = GaussianSpec(np.eye(3))
        draws = sample_complex_gaussian(spec, 10 ** 6, seed=4)
        emp = draws.conj().T @ draws / len(draws)
        assert np.abs(emp - np.eye(3)).max() < 5e-3

    def test_pseudo_covariance_vanishes(self):
        spec = GaussianSpec(np.eye(3))
        draws = sample_complex_gaussian(spec, 10 ** 6, seed=5)
        pseudo = draws.T @ draws / len(draws)
        assert np.abs(pseudo).max() < 5e-3

    def test_chunking_independent_of_total(self):
        # The first chunk of a longer run equals a shorter run: samples are
        # generated from fixed counter-based sub-streams.
        spec = GaussianSpec(np.eye(2))
        short = sample_complex_gaussian(spec, 500, seed=6)
        long = sample_complex_gaussian(spec, 70000, seed=6)
        assert np.array_equal(short, long[:500])


class TestDetProductExpectation:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_identity_values(self, m):
        for k in range(1, m + 1):
            value, err = expectation_det_product(np.eye(m), 1, k, m)
            expected = math.factorial(m) / math.factorial(m - k)
            assert value == pytest.approx(expected, rel=1e-12)
            assert err == 0.0
            mc, mc_err = expectation_det_product(np.eye(m), 1, k, m, method="monte_carlo",
                                                 samples=MC_CHUNK, seed=k)
            assert abs(mc - expected) < 4.0 * mc_err

    def test_scalar_case(self):
        value, _ = expectation_det_product(np.array([[2.5]]), 1, 1, 1)
        assert value == pytest.approx(2.5)

    def test_scaling_homogeneity(self):
        n, k, m = 2, 1, 2
        lam = random_hpd(n * m, seed=8)
        base, _ = expectation_det_product(lam, n, k, m)
        scaled, _ = expectation_det_product(2.0 * lam, n, k, m)
        assert scaled == pytest.approx(2.0 ** (k * n) * base, rel=1e-10)

    def test_monte_carlo_agrees(self):
        n, k, m = 2, 1, 2
        lam = random_hpd(n * m, seed=9)
        exact, _ = expectation_det_product(lam, n, k, m)
        mc, err = expectation_det_product(
            lam, n, k, m, method="monte_carlo", samples=200000, seed=10
        )
        assert abs(mc - exact) < 4.0 * err

    def test_monte_carlo_deterministic(self):
        lam = random_hpd(2, seed=11)
        a = expectation_det_product(lam, 2, 1, 1, method="monte_carlo",
                                    samples=50000, seed=12)
        b = expectation_det_product(lam, 2, 1, 1, method="monte_carlo",
                                    samples=50000, seed=12)
        assert a == b

    def test_monte_carlo_uses_sampler_draws(self):
        # The Monte Carlo mean averages the draws sample_complex_gaussian
        # makes from the same seed, across a chunk boundary.
        n, k, m = 2, 1, 2
        lam = random_hpd(n * m, seed=13)
        samples = MC_CHUNK + 500
        draws = sample_complex_gaussian(GaussianSpec(lam), samples, seed=14)
        per_point = (np.abs(draws.reshape(samples, n, m)) ** 2).sum(axis=2)
        mc, _ = expectation_det_product(lam, n, k, m, method="monte_carlo",
                                        samples=samples, seed=14)
        assert mc == pytest.approx(per_point.prod(axis=1).mean(), rel=1e-12)

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_monte_carlo_needs_two_samples(self, samples):
        with pytest.raises(DomainError):
            expectation_det_product(np.eye(2), 2, 1, 1, method="monte_carlo",
                                    samples=samples)

    def test_exact_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            expectation_det_product(np.eye(9), 9, 1, 1)
        with pytest.raises(SizeLimitExceeded):
            expectation_det_product(np.eye(15), 3, 3, 5)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            expectation_det_product(np.eye(3), 2, 1, 1)
        with pytest.raises(ValueError):
            expectation_det_product(np.eye(8), 2, 2, 2)  # n*k*m, not n*m

    @pytest.mark.parametrize("n", range(4, 9))
    def test_one_section_on_a_line_is_permanent(self, n):
        # k = m = 1: prod_p |a_p|^2 has expectation perm(lam) by Wick, at the
        # n that exact queries with one section gained when their caps went.
        lam = random_hpd(n, seed=60 + n)
        value, _ = expectation_det_product(lam, n, 1, 1)
        assert value == pytest.approx(permanent(lam).real, rel=1e-12)

    def test_monte_carlo_draws_joint_covariance(self):
        # The draws are those of the joint covariance lam (x) I_k from the
        # same seed: the factor repeated over the sections is its Cholesky factor.
        n, k, m = 2, 3, 3
        lam = random_hpd(n * m, seed=15)
        mc, _ = expectation_det_product(lam, n, k, m, method="monte_carlo",
                                        samples=5000, seed=16)
        draws = sample_complex_gaussian(GaussianSpec(expand_sections(lam, n, k, m)),
                                        5000, seed=16)
        reference = reference_det_products(draws, n, k, m).mean()
        assert mc == pytest.approx(reference, rel=1e-12)


def reference_det_products(draws, n, k, m):
    """prod_p det(a_p a_p*) per row of (S, n*k*m) draws: Gram matrices by
    einsum, determinants by batched LU."""
    a = draws.reshape(-1, n, k, m)
    grams = np.einsum("spjq,spkq->spjk", a, a.conj())
    return np.linalg.det(grams).real.prod(axis=1)


class TestDetProductKernel:
    # The Gram-and-LU reference rounds to about eps cond(a_p)^2 det per
    # sample, so on ill-conditioned draws it is off by more than 1e-12 of
    # the determinant itself.  It is compared at the scale of that error,
    # the Hadamard bound prod |a_pj|^2; the kernel's own rounding is
    # checked relative to the determinant against a long-double run.
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k,m", [(k, m) for m in range(1, 5) for k in range(1, m + 1)])
    def test_matches_reference(self, n, k, m):
        rng = np.random.default_rng([n, k, m])
        draws = rng.normal(size=(n * k * m, 4096)) + 1j * rng.normal(size=(n * k * m, 4096))
        values = _det_product_samples(draws, n, k, m)
        rows = (np.abs(draws) ** 2).reshape(n, k, m, -1).sum(axis=2)
        hadamard = rows.prod(axis=(0, 1))
        reference = reference_det_products(draws.T, n, k, m)
        assert np.all(np.abs(values - reference) <= 1e-12 * hadamard)
        precise = _det_product_samples(draws.astype(np.clongdouble), n, k, m)
        assert np.all(np.abs(values - precise) <= 1e-12 * precise)


def reference_expectation(lam, n, k, m):
    """Brute-force E prod_p det(a_p a_p*), one Wick permanent per term.

    Each determinant is expanded over a row permutation sigma and a column
    assignment (q_1..q_k): det(a a*) = sum sgn(sigma) prod_j a[j, q_j]
    conj(a[sigma(j), q_j]).  That is (k! m^k)^n moments of order kn.
    """
    spec = GaussianSpec(lam)
    perms = list(permutations(range(k)))
    q_choices = list(product(range(m), repeat=k))
    total = 0.0 + 0.0j
    for assignment in product(product(perms, q_choices), repeat=n):
        sign = 1
        holo = []
        anti = []
        for p, (sigma, qs) in enumerate(assignment):
            sign *= round(np.linalg.det(np.eye(k)[list(sigma)]))
            for j in range(k):
                holo.append((p * k + j) * m + qs[j])
                anti.append((p * k + sigma[j]) * m + qs[j])
        total += sign * wick_mixed_moment(spec, holo, anti)
    return total.real


# Sizes with k = 1 and n <= 3, or k >= 2 and n <= 2, up to m = 4, whose
# reference finishes in under 10 s; (2, 3, 4) and (2, 4, 4) are left out.
REFERENCE_SIZES = (
    [(n, 1, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)]
    + [(n, k, m) for n in (1, 2) for k in (2, 3) for m in range(k, 5)
       if (n, k, m) != (2, 3, 4)]
    + [(1, 4, 4)]
)


class TestExactAgainstWickReference:
    # The reference takes the joint covariance of the k sections, lam (x) I_k.
    @pytest.mark.parametrize("n,k,m", REFERENCE_SIZES)
    def test_section_expanded(self, n, k, m):
        lam = random_hpd(n * m, seed=20 + n + k + m)
        value, _ = expectation_det_product(lam, n, k, m)
        reference = reference_expectation(expand_sections(lam, n, k, m), n, k, m)
        assert value == pytest.approx(reference, rel=1e-12)

    # One section (k = 1), where lam is the whole covariance, plus (3, 2, 2)
    # and (4, 1, 2), which the exact route admits since its per-query caps
    # went.
    @pytest.mark.parametrize(
        "n,k,m", [s for s in REFERENCE_SIZES if s[1] == 1] + [(3, 2, 2), (4, 1, 2)]
    )
    def test_dense(self, n, k, m):
        lam = random_hpd(n * m, seed=40 + n + k + m)
        value, _ = expectation_det_product(lam, n, k, m)
        reference = reference_expectation(expand_sections(lam, n, k, m), n, k, m)
        assert value == pytest.approx(reference, rel=1e-12)
