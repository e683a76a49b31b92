"""Model kernels and their jets, normalized and in the unitary frame.

Each model is a line bundle whose holomorphic sections have the reproducing
kernel S(z, w) = exp(phi(z . conj(w))) in affine coordinates:

* ``FubiniStudy(N, m)`` -- degree-N polynomial ensemble on projective
  m-space, phi(t) = N log(1 + t);
* ``HeisenbergLevel(N, m)`` -- level-N Bargmann-Fock model on C^m,
  phi(t) = N t;
* ``HeisenbergLimit(m)`` -- its flat scaling limit, which is the level-1
  model.

A jet is never formed from S itself.  Sections are read in the unitary
frame, where they have unit variance at every point, and differentiated
with the Chern connection; ``KernelJet`` lists the resulting covariances.
The connection terms are multiples of the section value, so conditioning
on the values removes them and the zero correlations are those of the raw
kernel.  Every jet entry stays bounded, whatever the points.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class KernelJet:
    """Covariances of the unitary-frame section F and its covariant derivative DF.

    With phi as in the module docstring and p = z . conj(w):

    * ``s`` = E[F(z) conj(F(w))] = exp(phi(p) - phi(|z|^2)/2 - phi(|w|^2)/2),
      the normalized kernel S(z, w) / sqrt(S(z, z) S(w, w));
    * ``grad[j]`` = E[F(z) conj(DF_j(w))] = (phi'(p) z - phi'(|w|^2) w)_j s;
    * ``hess[i, j]`` = E[DF_i(z) conj(DF_j(w))]
      = ((phi'(p) I + phi''(p) conj(w) z^T) s + u v^T s)[i, j], with
      u = phi'(p) conj(w) - phi'(|z|^2) conj(z) and v = phi'(p) z - phi'(|w|^2) w.
    """

    s: complex
    grad: np.ndarray   # shape (m,)
    hess: np.ndarray   # shape (m, m)


def _check_model(m, N):
    if not 1 <= m <= 4:
        raise ValueError("supported dimensions are 1 <= m <= 4")
    if N < 1:
        raise ValueError("level N must be a positive integer")


@dataclass(frozen=True)
class FubiniStudy:
    N: int
    m: int

    def __post_init__(self):
        _check_model(self.m, self.N)

    def _jet(self, z, w):
        """Jet in terms of beta = (1 + p) / sqrt((1 + |z|^2)(1 + |w|^2)).

        |beta| <= 1, s = beta^N, phi'(p) s = N beta^(N-1) / sqrt(..) and
        (phi'' + phi'^2)(p) s = N (N-1) beta^(N-2) / (..), so no entry
        grows with |z| or is infinite at beta = 0.  Where |beta|^2 > 1/2,
        the powers come from log|beta| = log1p(-chord) / 2, with
        chord = 1 - |beta|^2 the squared chordal distance summed from
        nonnegative terms, so they keep full precision at large N.  The
        differences z / (1 + p) - w / (1 + |w|^2) and its mirror are formed
        from d = z - w, so nearby points lose no digits to cancellation.
        """
        N = self.N
        d = z - w
        zc = z.conj()
        a = 1.0 + float(np.vdot(z, z).real)
        b = 1.0 + float(np.vdot(w, w).real)
        t = complex(np.vdot(w, d))  # d . conj(w); 1 + p = b + t
        # x = ((1 + p) conj(z) - a conj(w)) / a and y = (b z - (1 + p) w) / b
        x = d.conj() - (complex(np.vdot(d, z)) / a) * zc
        y = d - (t / b) * w
        chord = (float(np.vdot(y, y).real) + abs(t / b) ** 2) / a
        root = math.sqrt(a * b)
        if chord < 0.5:
            log_beta = complex(0.5 * math.log1p(-chord), math.atan2(t.imag, b + t.real))
            s = cmath.exp(N * log_beta)
            beta_1 = cmath.exp((N - 1) * log_beta)
            beta_2 = cmath.exp(max(N - 2, 0) * log_beta)
        else:
            beta = (b + t) / root
            s, beta_1, beta_2 = beta ** N, beta ** (N - 1), beta ** max(N - 2, 0)
        first = N * beta_1 / root
        second = N * (N - 1) * beta_2 / (a * b)
        hess = x[:, None] * ((first / b) * w - second * y)
        hess -= ((first / a) * zc)[:, None] * z
        hess.flat[::len(z) + 1] += first
        return KernelJet(s=s, grad=first * y, hess=hess)


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
