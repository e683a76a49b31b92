"""Zero-correlation functions via the jet-covariance route.

The joint covariance of one section's values and first derivatives at the
query points is assembled from kernel jets.  Conditioning on the section
vanishing at the points gives its (n*m)-sized jet covariance, and the
correlation is the Gaussian determinant-product expectation over k
independent copies of that section, divided by pi^{kn} det(a)^k.

The jets take derivatives along an orthonormal frame of each model's own
metric, so with the default ``volume="metric"`` the jet covariance is used
as it is and the correlation counts zeros per unit metric volume.  Such
correlations are invariant under the model's isometries, so the jets are
taken at ``model._centered(points)``, where they keep the most digits.
``volume="euclidean"`` takes the jets at the points as given, then each
point's derivatives to the coordinate frame, and so counts zeros per unit
coordinate volume.
"""

from dataclasses import dataclass

import numpy as np

from . import closed_form
from .errors import DomainError, NearSingular
from .gaussian import expectation_det_product
from .kernels import kernel_jet
from .linalg import determinant, hermitian_solve

# Not called here; perfbench/tracing.py wraps these names in this module.
from .kernels import fs_metric  # noqa: F401
from .linalg import cholesky  # noqa: F401

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
            raise DomainError("volume must be 'metric' or 'euclidean'")
        m = self.model.m
        if not 1 <= self.k <= m:
            raise DomainError("codimension k must satisfy 1 <= k <= m")
        if self.n < 1:
            raise DomainError("the number of points n must be at least 1")
        points = tuple(
            np.atleast_1d(np.asarray(p, dtype=complex)).reshape(m) for p in self.points
        )
        if len(points) != self.n:
            raise DomainError("number of points must equal n")
        object.__setattr__(self, "points", points)
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
    """One section's covariance blocks: a is n x n, b is n x nm, c is nm x nm."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def assemble_blocks(query):
    """Populate the value/derivative covariance blocks from kernel jets.

    The jets are those of the normalized kernel in the unitary frame, with
    derivatives along an orthonormal frame of the model's metric, so the
    value block has a unit diagonal and no entry grows with the points'
    modulus or separation.  The correlation is exactly invariant
    under this per-point rescaling and under the connection terms, which
    add multiples of the values to the derivatives.  Per unit metric volume
    it is also invariant under the model's isometries, so those queries
    take their jets at ``model._centered(points)``.
    """
    model = query.model
    n, m = query.n, model.m
    points = query.points
    if query.volume == "metric":
        points = model._centered(points)
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


def jet_covariance(blocks):
    """Conditional first-derivative covariance c - b* a^-1 b of one section.

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


def _coordinate_volume(lam, query):
    """Take the jet covariance to the coordinate frame: block (p, p') becomes X_p lam X_p'^*.

    X_p is the model's coordinate frame at point p (identity for the flat
    models), so the determinants downstream measure zero volume in the flat
    coordinate metric.
    """
    m = query.model.m
    frame = np.zeros_like(lam)
    for p, point in enumerate(query.points):
        frame[p * m:(p + 1) * m, p * m:(p + 1) * m] = query.model._coordinate_frame(point)
    return frame @ lam @ frame.conj().T


def correlation(query):
    """n-point zero correlation K_n for the query; returns (value, stderr)."""
    blocks = assemble_blocks(query)
    lam = jet_covariance(blocks)
    if query.volume == "euclidean":
        lam = _coordinate_volume(lam, query)
    n, k, m = query.n, query.k, query.model.m
    value, err = expectation_det_product(
        lam, n, k, m,
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
