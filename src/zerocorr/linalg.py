"""Dense complex linear algebra and combinatorial primitives.

Everything here works on plain complex numpy arrays.  Matrices tagged
Hermitian are expected to satisfy ``a == a.conj().T`` to about 1e-12
relative accuracy; ``is_hermitian`` checks exactly that.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NearSingular, NotPositiveDefinite, SizeLimitExceeded

PERMANENT_SIZE_LIMIT = 20
PARTITION_SIZE_LIMIT = 8

# Bell numbers B(0)..B(8)
_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def is_hermitian(a, rtol=1e-12):
    """Check Hermitian symmetry within a relative tolerance."""
    a = np.asarray(a)
    scale = max(np.abs(a).max(), 1.0)
    return np.abs(a - a.conj().T).max() <= rtol * scale


def cholesky(a):
    """Lower-triangular L with L @ L.conj().T == a for Hermitian PD a.

    The diagonal of L is real positive.  Raises NotPositiveDefinite when a
    pivot falls below 1e-14 times the largest diagonal entry of a (or 1,
    if larger), or when LAPACK finds the matrix indefinite.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cholesky requires a square matrix")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"LAPACK factorization failed: {exc}") from None
    floor = 1e-14 * max(np.abs(np.diag(a)).max(initial=0.0), 1.0)
    pivots = np.diag(low).real ** 2
    bad = np.flatnonzero(pivots <= floor)
    if bad.size:
        raise NotPositiveDefinite(f"pivot {pivots[bad[0]]:.3e} at index {bad[0]} "
                                  f"below threshold {floor:.3e}")
    return low


def hermitian_solve(a, b):
    """Solve a @ x = b for Hermitian positive-definite a.

    Raises NearSingular when the reciprocal condition number estimate
    (ratio of extreme eigenvalues) is below 1e-12.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0 or eigs[0] / eigs[-1] < 1e-12:
        raise NearSingular(
            f"reciprocal condition number {eigs[0] / eigs[-1]:.3e} below 1e-12"
        )
    low = cholesky(a)
    y = solve_triangular(low, b, lower=True)
    return solve_triangular(low.conj().T, y, lower=False)


def determinant(a):
    """Determinant of a square complex matrix.

    Uses the Cholesky factorization (product of squared diagonal entries)
    when the input is Hermitian positive definite, and LU otherwise.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return complex(1.0)
    if is_hermitian(a):
        try:
            low = cholesky(a)
            return complex(np.prod(np.diag(low).real) ** 2)
        except NotPositiveDefinite:
            pass
    return complex(np.linalg.det(a))


def permanent(a):
    """Permanent of a square matrix by Ryser's inclusion-exclusion.

    Gray-code ordering updates one column sum per subset, giving
    O(2^n * n) work.  Size is capped at 20.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("permanent requires a square matrix")
    if n > PERMANENT_SIZE_LIMIT:
        raise SizeLimitExceeded(f"permanent size {n} exceeds {PERMANENT_SIZE_LIMIT}")
    if n == 0:
        return complex(1.0)
    total = 0.0 + 0.0j
    sums = np.zeros(n, dtype=complex)
    gray = 0
    sign = 1 if n % 2 == 0 else -1
    for counter in range(1, 2 ** n):
        new_gray = counter ^ (counter >> 1)
        bit = gray ^ new_gray
        col = bit.bit_length() - 1
        if new_gray & bit:
            sums += a[:, col]
        else:
            sums -= a[:, col]
        gray = new_gray
        parity = -1 if bin(gray).count("1") % 2 else 1
        total += sign * parity * np.prod(sums)
    return complex(total)


def set_partitions(n):
    """All partitions of {1, ..., n} as lists of disjoint blocks.

    Returns Bell(n) partitions; each block is a tuple of 1-based indices.
    Capped at n = 8.
    """
    if not 1 <= n <= PARTITION_SIZE_LIMIT:
        raise SizeLimitExceeded(f"set_partitions supports 1 <= n <= {PARTITION_SIZE_LIMIT}")
    partitions = [[(1,)]]
    for item in range(2, n + 1):
        extended = []
        for part in partitions:
            for i in range(len(part)):
                extended.append(part[:i] + [part[i] + (item,)] + part[i + 1:])
            extended.append(part + [(item,)])
        partitions = extended
    assert len(partitions) == _BELL[n]
    return partitions


def bell_number(n):
    """Bell number B(n) for n <= 8."""
    return _BELL[n]
