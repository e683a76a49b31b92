"""Tests for the dense linear algebra and combinatorial primitives."""

import itertools

import numpy as np
import pytest

from zerocorr.errors import NearSingular, NotPositiveDefinite, SizeLimitExceeded
from zerocorr.linalg import (
    bell_number,
    cholesky,
    determinant,
    hermitian_solve,
    is_hermitian,
    permanent,
    set_partitions,
)


def random_hpd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g @ g.conj().T + n * np.eye(n))


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        l = cholesky(2.0 * np.eye(2))
        assert np.allclose(l, np.sqrt(2.0) * np.eye(2))

    def test_reconstructs_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        l = cholesky(a)
        assert np.allclose(l @ l.conj().T, a, atol=1e-14)
        assert np.all(np.diag(l).imag == 0)
        assert np.all(np.diag(l).real > 0)

    def test_random_reconstruction(self):
        a = random_hpd(6, seed=0)
        l = cholesky(a)
        err = np.linalg.norm(l @ l.conj().T - a) / np.linalg.norm(a)
        assert err < 1e-12
        assert np.allclose(np.tril(l), l)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(-np.eye(2))

    def test_tiny_pivot_names_index(self):
        with pytest.raises(NotPositiveDefinite, match="at index 1"):
            cholesky(np.diag([1.0, 1e-20]))


class TestHermitianSolve:
    def test_matches_numpy(self):
        a = random_hpd(5, seed=1)
        b = np.random.default_rng(2).normal(size=(5, 3)) + 0j
        x = hermitian_solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_near_singular(self):
        a = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(NearSingular):
            hermitian_solve(a, np.eye(2))


class TestDeterminant:
    def test_hermitian_matches_numpy(self):
        a = random_hpd(5, seed=3)
        assert np.isclose(determinant(a), np.linalg.det(a).real, rtol=1e-12)

    def test_general_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.isclose(determinant(a), np.linalg.det(a), rtol=1e-12)


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)

    def test_all_ones(self):
        # permanent of the all-ones n x n matrix is n!
        n = 5
        assert permanent(np.ones((n, n))) == pytest.approx(120.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        brute = sum(
            np.prod([a[i, p[i]] for i in range(4)])
            for p in itertools.permutations(range(4))
        )
        assert np.isclose(permanent(a), brute, rtol=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            permanent(np.eye(21))


class TestSetPartitions:
    def test_counts_are_bell_numbers(self):
        for n in range(1, 8):
            assert len(list(set_partitions(n))) == bell_number(n)

    def test_partition_three(self):
        parts = {
            tuple(sorted(tuple(sorted(b)) for b in p)) for p in set_partitions(3)
        }
        expected = {
            ((1, 2, 3),),
            ((1,), (2, 3)),
            ((1, 3), (2,)),
            ((1, 2), (3,)),
            ((1,), (2,), (3,)),
        }
        assert parts == expected

    def test_blocks_cover_ground_set(self):
        for p in set_partitions(5):
            flat = sorted(i for b in p for i in b)
            assert flat == list(range(1, 6))

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            list(set_partitions(9))


class TestIsHermitian:
    def test_hermitian(self):
        assert is_hermitian(np.array([[2.0, 1j], [-1j, 2.0]]))

    def test_not_hermitian(self):
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
