"""Model kernels and their jets, normalized, in orthonormal frames.

Each model is a line bundle whose holomorphic sections have the reproducing
kernel S(z, w) = exp(phi(z . conj(w))) in affine coordinates:

* ``FubiniStudy(N, m)`` -- degree-N polynomial ensemble on projective
  m-space, phi(t) = N log(1 + t), with the Fubini-Study metric
  ``fs_metric``;
* ``HeisenbergLevel(N, m)`` -- level-N Bargmann-Fock model on C^m,
  phi(t) = N t, with the Euclidean metric;
* ``HeisenbergLimit(m)`` -- its flat scaling limit, which is the level-1
  model.

A jet is never formed from S itself.  Sections are read in the unitary
frame, where they have unit variance at every point, and differentiated
with the Chern connection along an orthonormal frame of the model's own
metric; ``KernelJet`` lists the resulting covariances.  The connection
terms are multiples of the section value, so conditioning on the values
removes them and the zero correlations are those of the raw kernel, per
unit metric volume.  Every jet entry stays bounded, whatever the points.

``model._coordinate_frame(z)`` is the matrix X whose row q holds the
coordinate vector d/dz_q in the orthonormal frame at z, so derivatives
along the coordinates are X times those along the frame and X X* is the
metric at z.  It is the identity for the flat models, whose coordinate
frame is already orthonormal.  ``model._centered(points)`` moves a query's
points by an isometry of the model to where the jets keep the most digits:
each model takes the first point to the origin, the flat models by a
translation.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError


@dataclass(frozen=True)
class KernelJet:
    """Covariances of the unitary-frame section F and its covariant derivatives DF.

    DF_j is the derivative along the j-th vector of the orthonormal frame of
    the model's metric (see the module docstring):

    * ``s`` = E[F(z) conj(F(w))], the normalized kernel S(z, w) / sqrt(S(z, z) S(w, w));
    * ``grad[j]`` = E[F(z) conj(DF_j(w))];
    * ``hess[i, j]`` = E[DF_i(z) conj(DF_j(w))].

    Flat models, with d = z - w: s = exp(N (z . conj(w)) - N |z|^2 / 2 - N |w|^2 / 2),
    grad = N s d and hess = N s (I - N conj(d) d^T).

    Fubini-Study, in homogeneous coordinates: Z = (1, z) / sqrt(1 + |z|^2)
    = (alpha, zeta) is a unit vector of C^(m+1), and the m columns of
    E_z = [-conj(zeta)^T ; I - zeta zeta^* / (1 + alpha)] complete it to a
    unitary matrix; they are the orthonormal frame at z.  With
    t = Z . conj(W), u = E_z^T conj(W) and v = E_w^* Z:
    s = t^N, grad = N t^(N-1) v and
    hess = N t^(N-1) E_z^T conj(E_w) + N (N-1) t^(N-2) u v^T.
    """

    s: complex
    grad: np.ndarray   # shape (m,)
    hess: np.ndarray   # shape (m, m)


def _check_model(m, N):
    if not 1 <= m <= 4:
        raise DomainError("supported dimensions are 1 <= m <= 4")
    if N < 1:
        raise DomainError("level N must be a positive integer")


@dataclass(frozen=True)
class FubiniStudy:
    N: int
    m: int

    def __post_init__(self):
        _check_model(self.m, self.N)

    def _jet(self, z, w):
        """Jet from the homogeneous unit vectors Z, W and frames E_z, E_w; see KernelJet.

        With c = alpha^2 / (1 + alpha) at each point and d = z - w, the
        frames give v = E_w^* Z = alpha_z (d - c_w (w^* d) w) and
        u = E_z^T conj(W) = -alpha_w conj(d - c_z (z^* d) z), both formed from
        d, so nearby points lose no digits to cancellation.  |t| <= 1 and
        every frame entry is at most 1 in modulus, so no entry grows with |z|
        or is infinite at t = 0.  Where |t|^2 > 1/2, the powers come from
        log|t| = log1p(-chord) / 2, with chord = 1 - |t|^2 = |v|^2 summed
        from nonnegative terms, so they keep full precision at large N.
        """
        N = self.N
        d = z - w
        a = 1.0 + float(np.vdot(z, z).real)
        b = 1.0 + float(np.vdot(w, w).real)
        alpha_z, c_z = _frame_scalars(a)
        alpha_w, c_w = _frame_scalars(b)
        w_d, z_d = complex(np.vdot(w, d)), complex(np.vdot(z, d))
        v = alpha_z * (d - (c_w * w_d) * w)
        u = (-alpha_w) * (d - (c_z * z_d) * z).conj()
        # 1 + z . conj(w) = b + d . conj(w) = a - z . conj(d): the form that
        # starts from the smaller point keeps the digits of the phase, and
        # swapping z and w gives exactly the conjugate.
        if b <= a:
            t = alpha_z * alpha_w * (b + w_d)
        else:
            t = alpha_z * alpha_w * (a - z_d.conjugate())
        chord = float(np.vdot(v, v).real)
        if chord < 0.5:
            log_t = complex(0.5 * math.log1p(-chord), math.atan2(t.imag, t.real))
            t_1 = cmath.exp((N - 1) * log_t)
            t_2 = cmath.exp(max(N - 2, 0) * log_t)
            s = cmath.exp(N * log_t)
        else:
            s, t_1, t_2 = t ** N, t ** (N - 1), t ** max(N - 2, 0)
        first = N * t_1
        second = N * (N - 1) * t_2
        # E_z^T conj(E_w) = I + kappa conj(z) w^T - c_z conj(z) z^T - c_w conj(w) w^T
        kappa = alpha_z * alpha_w + c_z * c_w * complex(np.vdot(w, z))
        hess = z.conj()[:, None] * (first * (kappa * w - c_z * z))
        hess -= w.conj()[:, None] * ((first * c_w) * w)
        hess += u[:, None] * (second * v)
        hess.flat[::len(z) + 1] += first
        return KernelJet(s=s, grad=first * v, hess=hess)

    def _centered(self, points):
        """The points moved by the unitary of C^(m+1) that takes the first one to the origin.

        The affine frame twists near the hyperplane at infinity: there,
        nearby points have pair phases N arg(1 + z . conj(w)) of order
        N |z - w| / |z|, and their rounding errors do not cancel between
        pairs.  With the first point at the origin, the phases of a cluster
        are of order N times its squared size.  Each w goes to
        E_z^* W / (Z^* W) = -(d - c_z (z^* d) z) / (alpha_z (1 + z^* w)),
        formed from d = z - w as in ``_jet``.  If some point lies more than
        a quarter turn from the first (it would land outside the unit ball,
        at infinity if antipodal), the points are returned as given.
        """
        z = points[0]
        alpha, c = _frame_scalars(1.0 + float(np.vdot(z, z).real))
        moved = []
        for w in points:
            d = z - w
            tangent = d - (c * complex(np.vdot(z, d))) * z
            height = -alpha * (1.0 + complex(np.vdot(z, w)))
            if float(np.vdot(tangent, tangent).real) > abs(height) ** 2:
                return points
            moved.append(tangent / height)
        return moved

    def _coordinate_frame(self, z):
        """X = alpha (I - c conj(z) z^T), the Hermitian root of fs_metric(z)."""
        alpha, c = _frame_scalars(1.0 + float(np.vdot(z, z).real))
        frame = z.conj()[:, None] * ((-alpha * c) * z)
        frame.flat[::len(z) + 1] += alpha
        return frame


def _frame_scalars(a):
    """alpha = 1 / sqrt(a) and c = alpha^2 / (1 + alpha) for a = 1 + |z|^2."""
    alpha = 1.0 / math.sqrt(a)
    return alpha, alpha * alpha / (1.0 + alpha)


@dataclass(frozen=True)
class HeisenbergLevel:
    N: int
    m: int

    def __post_init__(self):
        _check_model(self.m, self.N)

    def _jet(self, z, w):
        """Jet from d = z - w alone, so it is exactly translation covariant.

        s = exp(-N |d|^2 / 2 + i N Im(d . conj(w))), grad = N s d and
        hess = N s (I - N conj(d) d^T).
        """
        N = self.N
        d = z - w
        dc = d.conj()
        s = cmath.exp(complex(-0.5 * N * (d @ dc).real, -N * (w @ dc).imag))
        ns = N * s
        hess = ((-N * ns) * dc)[:, None] * d
        hess.flat[::len(d) + 1] += ns
        return KernelJet(s=s, grad=ns * d, hess=hess)

    def _centered(self, points):
        """The points translated to put the first at the origin: pair phases grow with |w|."""
        return [w - points[0] for w in points]

    def _coordinate_frame(self, z):
        """The identity: the coordinate frame is orthonormal for the Euclidean metric."""
        return np.eye(len(z))


@dataclass(frozen=True)
class HeisenbergLimit(HeisenbergLevel):
    """The flat scaling-limit model: the level-1 Bargmann-Fock model on C^m."""

    N: int = field(default=1, init=False, repr=False)


def _as_point(z, m):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (m,):
        raise ValueError(f"expected a point in C^{m}, got shape {z.shape}")
    return z


def kernel_jet(model, z, w):
    """Jet (s, grad, hess) of the model's normalized kernel at (z, w); see KernelJet."""
    return model._jet(_as_point(z, model.m), _as_point(w, model.m))


def fs_scaled_szego(N, m, u, v):
    """Level-N projective kernel at points u/sqrt(N), v/sqrt(N), rescaled by N^-m.

    Evaluated on the circle-bundle lift with phases zero; the factorial
    ratio (N+m)!/N! is accumulated in the log domain so levels up to ~1e4
    do not overflow.  Converges to ``heisenberg_limit_kernel`` at rate
    N^(-1/2) on compact windows.
    """
    if N < 1:
        raise DomainError("level N must be a positive integer")
    u = _as_point(u, m)
    v = _as_point(v, m)
    log_ratio = gammaln(N + m + 1) - gammaln(N + 1) - m * np.log(N)
    prefactor = np.exp(log_ratio) / np.pi ** m
    pairing = u @ v.conj()
    log_main = (
        N * np.log(1.0 + pairing / N)
        - 0.5 * N * np.log1p((u @ u.conj()).real / N)
        - 0.5 * N * np.log1p((v @ v.conj()).real / N)
    )
    return complex(prefactor * np.exp(log_main))


def heisenberg_limit_kernel(u, theta, v, phi):
    """Flat-model kernel pi^-m e^{i(theta-phi)} e^{i Im(u.conj(v))} e^{-|u-v|^2/2}."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if u.shape != v.shape:
        raise ValueError("u and v must have the same dimension")
    m = u.shape[0]
    pairing = u @ v.conj()
    diff = u - v
    return complex(
        np.pi ** (-m)
        * np.exp(1j * (theta - phi) + 1j * pairing.imag - 0.5 * (diff @ diff.conj()).real)
    )


def fs_metric(z):
    """Fubini-Study metric tensor g_qq' at the affine point z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zsq = (z @ z.conj()).real
    return ((1.0 + zsq) * np.eye(len(z)) - np.outer(z.conj(), z)) / (1.0 + zsq) ** 2
