"""Circular complex Gaussian machinery.

Mixed moments are reduced to permanents of covariance submatrices, and
the determinant-product expectation at the heart of the zero-correlation
formula is evaluated either exactly (a Wick sum of traces of covariance
block products) or by vectorized Monte Carlo with a counter-based RNG.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .errors import DomainError, SizeLimitExceeded
from .linalg import cholesky, is_hermitian, permanent

WICK_SIZE_LIMIT = 10
# Exact sums have (n!)^k (k!)^n terms of about 20 us each (2 vCPUs): at
# most 40320, at (n, k) = (8, 1), which takes about 1 s.
EXACT_PAIRING_LIMIT = 8
MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaussianSpec:
    """A centered circular complex Gaussian: E[z_j conj(z_k)] = covariance[j, k]."""

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=complex)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if not is_hermitian(cov):
            raise ValueError("covariance must be Hermitian")
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self):
        return self.covariance.shape[0]


def wick_mixed_moment(spec, holo, anti):
    """E[prod_i z_holo[i] * prod_j conj(z_anti[j])] via the Wick permanent.

    Moments with unequal numbers of holomorphic and antiholomorphic
    factors vanish by circular symmetry and are rejected here since the
    caller would be asking for something identically zero.
    """
    holo = list(holo)
    anti = list(anti)
    if len(holo) != len(anti):
        return complex(0.0)
    if len(holo) > WICK_SIZE_LIMIT:
        raise SizeLimitExceeded(f"moment order {len(holo)} exceeds {WICK_SIZE_LIMIT}")
    if len(holo) == 0:
        return complex(1.0)
    sub = spec.covariance[np.ix_(holo, anti)]
    return permanent(sub)


def philox(seed, stream=0):
    """Counter-based generator for one (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _gaussian_chunks(low, count, seed):
    """Draws of CN(0, low low*) as (dim, S) arrays, samples last.

    Chunk i holds S = MC_CHUNK samples (fewer in the last chunk) made from
    Philox stream i: (S, dim, 2) standard normals scaled by sqrt(1/2), read
    in place as (S, dim) complex numbers z, and returned as low @ z.T.  No
    reference to the normals outlives the product, so they are freed before
    the caller works on the draws.
    """
    dim = low.shape[0]
    for chunk_index, start in enumerate(range(0, count, MC_CHUNK)):
        rng = philox(seed, chunk_index)
        size = (min(MC_CHUNK, count - start), dim, 2)
        yield low @ rng.normal(scale=np.sqrt(0.5), size=size).view(complex)[..., 0].T


def sample_complex_gaussian(spec, count, seed):
    """Draw ``count`` samples of the Gaussian as a (count, dim) complex array.

    Output is a deterministic function of (seed, count): samples are
    generated in fixed chunks from independent counter-based streams, so
    the result does not depend on how the work is scheduled.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    chunks = _gaussian_chunks(cholesky(spec.covariance), count, seed)
    return np.concatenate(list(chunks), axis=1).T


def _exact_expectation(lam, n, k, m):
    # Label x = p k + j (section j at point p).  Each det(a_p a_p*) expands
    # over sigma_p in S_k, Wick pairs a_x with conj(a_rho(x)), and the column
    # sums close along the cycles of pi = sigma^-1 rho into block traces.
    # Independent sections pair only with themselves: rho(p, j) = (rho_j(p), j).
    size = n * k
    blocks = lam.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    pairings = [[rhos[x % k][x // k] * k + x % k for x in range(size)]
                for rhos in product(permutations(range(n)), repeat=k)]
    total = 0.0 + 0.0j
    for sigmas in product(permutations(range(k)), repeat=n):
        inverse = [p * k + perm.index(j) for p, perm in enumerate(sigmas) for j in range(k)]
        sign = (-1) ** sum(a > b for a, b in combinations(inverse, 2))
        for rho in pairings:
            pi = [inverse[y] for y in rho]
            term = sign
            unseen = set(range(size))
            while unseen:
                x = unseen.pop()
                chain = blocks[x // k, rho[x] // k]
                while pi[x] in unseen:
                    x = pi[x]
                    unseen.remove(x)
                    chain = chain @ blocks[x // k, rho[x] // k]
                term *= np.trace(chain)
            total += term
    return total


def _det_product_samples(draws, n, k, m):
    # det(a_p a_p*) = prod_j |r_j|^2, where r_j is row j of a_p minus its
    # projections on the earlier rows (modified Gram-Schmidt).  Each step is
    # an elementwise operation over the (n, m, S) slab of every point.
    a = draws.reshape(n, k, m, -1)
    basis = []
    det = 1.0
    for j in range(k):
        r = a[:, j]
        for q, norm in basis:
            coef = (r * q.conj()).sum(axis=1) / norm
            r = r - coef[:, None] * q
        norm = (r.real ** 2 + r.imag ** 2).sum(axis=1)
        det = det * norm
        basis.append((r, norm))
    return det.prod(axis=0)


def expectation_det_product(lam, n, k, m, method="exact", samples=10 ** 6, seed=0):
    """<prod_p det(sum_q a^p_jq conj(a^p_j'q))> for k independent sections.

    ``lam`` is the (n*m)-sized Hermitian PD covariance of one section's
    derivatives, indexed by (p, q) flattened in that order; row j of a^p is
    section j.  The exact method sums traces of products of m x m blocks of
    ``lam`` over row permutations and the Wick pairings that keep each
    section, (n!)^k (k!)^n terms; it requires k*n <= 8 and m <= 4.  Monte
    Carlo averages ``samples`` draws (at least 2, else ``DomainError``) made
    by ``_gaussian_chunks`` from the Cholesky factor of lam (x) I_k, that of
    ``lam`` repeated over the sections: (n*k*m, S) arrays, samples last, with
    chunk i from Philox stream i.  Each determinant is a Gram determinant
    taken by Gram-Schmidt along the sample axis, and the chunks' (count,
    mean, squared deviation) are merged with Chan's update.  Both methods
    check that ``lam`` is finite and Hermitian, else raise ``DomainError``.

    Returns (value, standard_error); the exact path reports 0.0 error.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (n * m, n * m) or not (np.isfinite(lam).all() and is_hermitian(lam)):
        raise DomainError("covariance must be a finite Hermitian matrix of size n*m")
    if method == "exact":
        if k * n > EXACT_PAIRING_LIMIT or m > 4:
            raise SizeLimitExceeded(
                f"exact method requires k*n <= {EXACT_PAIRING_LIMIT} and m <= 4"
            )
        value = _exact_expectation(lam, n, k, m)
        return value.real, 0.0
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if samples < 2:
        raise DomainError(f"Monte Carlo needs at least 2 samples, got {samples}")
    count = 0
    mean = 0.0
    m2 = 0.0
    low = np.einsum("pqrs,jl->pjqrls", cholesky(lam).reshape(n, m, n, m), np.eye(k))
    for draws in _gaussian_chunks(low.reshape(n * k * m, n * k * m), samples, seed):
        values = _det_product_samples(draws, n, k, m)
        # Chan et al.'s pairwise update of (count, mean, sum of squared
        # deviations) with the chunk's own moments.
        size = values.size
        chunk_mean = values.mean()
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += ((values - chunk_mean) ** 2).sum() + delta ** 2 * count * size / total
        count = total
    variance = m2 / count
    return mean, np.sqrt(variance / count)
