"""Zero-correlation functions via the jet-covariance route.

The joint covariance of section values and first derivatives at the query
points is assembled from kernel jets in reduced form (per-section blocks;
the k independent sections only enter through a Kronecker identity
factor).  Conditioning on the sections vanishing at the points gives the
jet covariance, and the correlation is a Gaussian determinant-product
expectation divided by pi^{kn} det(a)^k.
"""

from dataclasses import dataclass, field

import numpy as np

from . import closed_form
from .errors import NearSingular, SizeLimitExceeded
from .gaussian import expectation_det_product
from .kernels import FubiniStudy, fs_metric, kernel_jet
from .linalg import cholesky, determinant, hermitian_solve

MIN_SCALED_SEPARATION = 1e-3


@dataclass(frozen=True)
class CorrelationQuery:
    model: object
    n: int
    k: int
    points: tuple
    method: str = "exact"
    samples: int = 10 ** 6
    seed: int = 0
    volume: str = "metric"

    def __post_init__(self):
        if self.volume not in ("metric", "euclidean"):
            raise ValueError("volume must be 'metric' or 'euclidean'")
        m = self.model.m
        if not 1 <= self.k <= m:
            raise ValueError("codimension k must satisfy 1 <= k <= m")
        points = tuple(
            np.atleast_1d(np.asarray(p, dtype=complex)).reshape(m) for p in self.points
        )
        if len(points) != self.n:
            raise ValueError("number of points must equal n")
        object.__setattr__(self, "points", points)
        if self.method == "exact":
            if self.k == 1 and self.n > 3:
                raise SizeLimitExceeded("exact k=1 supports n <= 3")
            if self.k >= 2 and self.n > 2:
                raise SizeLimitExceeded("exact k>=2 supports n <= 2")
        _check_separation(self.model, points)


def _check_separation(model, points):
    if len(points) < 2:
        return
    guard = MIN_SCALED_SEPARATION / np.sqrt(model.N)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            sep = np.linalg.norm(points[i] - points[j])
            if sep < guard:
                raise NearSingular(
                    f"points {i} and {j} separated by {sep:.3e}, below guard {guard:.3e}"
                )


@dataclass(frozen=True)
class CovarianceBlocks:
    """Reduced covariance blocks: a is n x n, b is n x nm, c is nm x nm."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    k: int = 1


def assemble_blocks(query):
    """Populate the value/derivative covariance blocks from kernel jets.

    The jets are those of the normalized kernel in the unitary frame, so
    the value block has a unit diagonal and no entry grows with the
    points' modulus or separation.  The correlation is exactly invariant
    under this per-point rescaling and under the connection terms, which
    add multiples of the values to the derivatives.
    """
    model = query.model
    n, m = query.n, model.m
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n * m), dtype=complex)
    c = np.zeros((n * m, n * m), dtype=complex)
    for p in range(n):
        for pp in range(n):
            jet = kernel_jet(model, query.points[p], query.points[pp])
            a[p, pp] = jet.s
            b[p, pp * m:(pp + 1) * m] = jet.grad
            c[p * m:(p + 1) * m, pp * m:(pp + 1) * m] = jet.hess
    return CovarianceBlocks(a=a, b=b, c=c, k=query.k)


def jet_covariance(blocks):
    """Conditional first-derivative covariance c - b* a^-1 b, reduced form.

    Result is symmetrized; an asymmetry above 1e-10 relative indicates a
    bad block assembly and raises.
    """
    solved = hermitian_solve(blocks.a, blocks.b)
    lam = blocks.c - blocks.b.conj().T @ solved
    asym = np.abs(lam - lam.conj().T).max()
    scale = max(np.abs(lam).max(), 1.0)
    if asym > 1e-10 * scale:
        raise ArithmeticError(f"jet covariance asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (lam + lam.conj().T)


def _expand_sections(lam, n, k, m):
    """Insert the identity factor over section indices: (p,q) -> (p,j,q)."""
    if k == 1:
        return lam
    lam4 = lam.reshape(n, m, n, m)
    full = np.einsum("pqrs,jl->pjqrls", lam4, np.eye(k))
    return full.reshape(n * k * m, n * k * m)


def _metric_contract(lam, query):
    """Absorb the inverse metric of the model into the jet covariance.

    For the projective model the determinant in the correlation formula
    carries the inverse Fubini-Study metric; conjugating each point block
    by a Cholesky factor of that inverse metric reduces it to the plain
    Euclidean determinant handled downstream.  Queries with
    volume="euclidean" skip the contraction and measure zero volume in the
    flat coordinate metric instead.
    """
    if not isinstance(query.model, FubiniStudy) or query.volume == "euclidean":
        return lam
    n, m = query.n, query.model.m
    factors = []
    for p in range(n):
        g = fs_metric(query.points[p])
        gamma = hermitian_solve(g, np.eye(m))
        factors.append(cholesky(0.5 * (gamma + gamma.conj().T)))
    d = np.zeros((n * m, n * m), dtype=complex)
    for p in range(n):
        d[p * m:(p + 1) * m, p * m:(p + 1) * m] = factors[p]
    return d.conj().T @ lam @ d


def correlation(query):
    """n-point zero correlation K_n for the query; returns (value, stderr)."""
    blocks = assemble_blocks(query)
    lam = jet_covariance(blocks)
    lam = _metric_contract(lam, query)
    n, k, m = query.n, query.k, query.model.m
    lam_full = _expand_sections(lam, n, k, m)
    value, err = expectation_det_product(
        lam_full, n, k, m,
        method=query.method, samples=query.samples, seed=query.seed,
    )
    det_a = determinant(blocks.a).real
    norm = np.pi ** (k * n) * det_a ** k
    return value / norm, err / norm


def one_point_density(model, k):
    """Density of simultaneous zeros of k sections for the model."""
    return closed_form.density(model, k)


def normalized_correlation(query):
    """K_n divided by the product of one-point densities; returns (value, stderr)."""
    value, err = correlation(query)
    rho = one_point_density(query.model, query.k) ** query.n
    return value / rho, err / rho
