"""Closed-form limit pair correlations, densities, and decay machinery.

These are the analytic counterparts of the jet-covariance route in
``kac_rice``: the two are computed through entirely different pipelines
and must agree, which is the package's central consistency check.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import DomainError, MissingSubset, SizeLimitExceeded
from .linalg import set_partitions

# Switch radii between the closed forms and their small-distance series.
# Near zero the closed forms divide near-cancelling combinations by high
# powers of expm1(r^2); below these radii the printed series are already
# accurate to ~1e-11 and the two branches agree to better than 1e-9.
SERIES_SWITCH_T_K1 = 0.05
SERIES_SWITCH_R_K22 = 0.2
SERIES_SWITCH_R_K2 = 0.1
# Beyond this radius the closed forms equal their two-term asymptote to
# rounding (the remainder is below 1e-50), and past r ~ 13 they overflow.
ASYMPTOTE_SWITCH_R = 8.0


def _series_terms_k1(m):
    """Printed small-t expansion of the codimension-1 pair correlation.

    Returns (coefficient, power) pairs in t = r^2/2, coefficients exact.
    """
    mm = m * m
    return [
        (Fraction(m - 1, 2 * m), -1),
        (Fraction(m - 1, 2 * m), 0),
        (Fraction((m + 2) * (m + 1), 6 * mm), 1),
        (Fraction(-(m + 4) * (m + 3), 90 * mm), 3),
        (Fraction((m + 6) * (m + 5), 945 * mm), 5),
        (Fraction(-(m + 8) * (m + 7), 9450 * mm), 7),
        (Fraction((m + 10) * (m + 9), 93555 * mm), 9),
        (Fraction(-691 * (m + 12) * (m + 11), 638512875 * mm), 11),
        (Fraction(2 * (m + 14) * (m + 13), 18243225 * mm), 13),
    ]


def _series_terms_k2(m):
    """Printed small-r expansion of the codimension-2 pair correlation.

    For m = 2 the expansion collapses to a series in r^4 with more printed
    terms; (coefficient, power) pairs are in r.
    """
    if m == 2:
        return [
            (Fraction(3, 4), 0),
            (Fraction(1, 24), 4),
            (Fraction(-1, 288), 8),
            (Fraction(1, 4800), 12),
            (Fraction(-1, 96768), 16),
        ]
    mm = m * m
    return [
        (Fraction(m - 2, m), -4),
        (Fraction(m - 2, m), -2),
        (Fraction(5 * mm - 7 * m + 12, 12 * (m - 1) * m), 0),
        (Fraction((m - 2) * (m + 2) * (m + 1), 12 * (m - 1) * mm), 2),
        (Fraction((m + 3) * (m + 2), 240 * (m - 1) * m), 4),
        (Fraction(-(m - 2) * (m + 4) * (m + 3), 720 * (m - 1) * mm), 6),
    ]


def _check_kappa_args(r, m, k):
    if not 0 <= r < math.inf:
        raise DomainError("distance r must be finite and nonnegative")
    if k not in (1, 2):
        raise DomainError("closed forms are available for k in {1, 2}")
    if k > m:
        raise DomainError("codimension k cannot exceed dimension m")
    if k == 2 and m == 1:
        raise DomainError("the codimension-2 formula requires m >= 2")
    if r == 0 and (k == 1 and m >= 2 or k == 2 and m >= 3):
        # the series has a negative leading power: zeros of distinct
        # sections attract at short range in these cases
        raise DomainError(f"kappa diverges as r -> 0 for k={k}, m={m}")


def kappa_series(r, m, k=1, order=None):
    """Truncated small-distance series of the pair correlation.

    ``order`` limits the number of leading printed terms; by default all
    printed terms are used.  Raises DomainError where the truncated sum
    is not a finite float (huge r, or a negative power of a tiny r).
    """
    _check_kappa_args(r, m, k)
    terms = _series_terms_k1(m) if k == 1 else _series_terms_k2(m)
    if order is not None:
        terms = terms[:order]
    with np.errstate(all="ignore"):
        x = np.float64(r) * r / 2.0 if k == 1 else np.float64(r)
        value = float(sum(float(c) * x ** p for c, p in terms if c != 0))
    if not math.isfinite(value):
        raise DomainError(f"the truncated series is not finite at r = {r!r}")
    return value


def _kappa1_closed(r, m):
    t = r * r / 2.0
    sh, ch = math.sinh(t), math.cosh(t)
    return ((0.5 * (m * m + m) * sh * sh + t * t) * ch - (m + 1) * t * sh) / (
        m * m * sh ** 3
    ) + (m - 1) / (2.0 * m)


def _kappa2_closed(r, m):
    u = r * r
    e = math.exp(u)
    em1 = math.expm1(u)
    mm = m * m
    return (
        ((mm - m) * e * e + 2 * (m - 1) * e + 2) / (em1 ** 2 * m * (m - 1))
        - 4 * u * e * ((m - 1) * e + 1) * (m + 1) / (em1 ** 3 * (m - 1) * mm)
        + 2 * u * u * e * ((m - 1) * e * e + 2 * m * e + 1) / (em1 ** 4 * (m - 1) * mm)
    )


def kappa(r, m, k=1):
    """Limit pair correlation of simultaneous zeros at scaled distance r."""
    _check_kappa_args(r, m, k)
    if r > ASYMPTOTE_SWITCH_R:
        return kappa_asymptote(r, m, k)
    if k == 1:
        if r * r / 2.0 < SERIES_SWITCH_T_K1:
            return kappa_series(r, m, k)
        return _kappa1_closed(r, m)
    switch = SERIES_SWITCH_R_K22 if m == 2 else SERIES_SWITCH_R_K2
    if r < switch:
        return kappa_series(r, m, k)
    return _kappa2_closed(r, m)


def kappa_asymptote(r, m, k=1):
    """Two-term large-distance asymptote 1 + (polynomial in r^2) e^{-r^2}.

    The polynomial is u^2 - 2(m+1)u + m(m+1) with u = r^2, scaled by
    1/m^2 for k = 1 and 2/m^2 for k = 2; the remainder is O(r^4 e^{-2r^2}).
    Both cases were rederived from the closed forms and verified against
    50-digit evaluations.
    """
    _check_kappa_args(r, m, k)
    u = r * r
    decay = math.exp(-u)
    if decay == 0.0:  # u > 745: the correction is below 1e-300
        return 1.0
    poly = (u * u - 2 * (m + 1) * u + m * (m + 1)) * decay / (m * m)
    if k == 1:
        return 1.0 + poly
    return 1.0 + 2.0 * poly


def density(model, k):
    """One-point density of simultaneous zeros of k independent sections."""
    m = model.m
    if not 1 <= k <= m:
        raise DomainError("codimension k must satisfy 1 <= k <= m")
    base = math.factorial(m) / (math.factorial(m - k) * math.pi ** k)
    return model.N ** k * base


def _normalize_kvalues(kvalues, n):
    table = {}
    for key, value in kvalues.items():
        table[frozenset(key)] = float(value)
    for i in range(1, n + 1):
        table.setdefault(frozenset([i]), 1.0)
    return table


def connected_correlations(kvalues, n):
    """Connected (truncated) correlation from normalized correlations.

    ``kvalues`` maps subsets of {1..n} (any iterable of 1-based indices)
    to normalized correlation values; singletons default to 1.  The sum
    runs over all set partitions with weight (-1)^(l+1) (l-1)!.
    """
    if n > 5:
        raise SizeLimitExceeded("connected correlations supported for n <= 5")
    table = _normalize_kvalues(kvalues, n)
    total = 0.0
    for partition in set_partitions(n):
        l = len(partition)
        term = (-1) ** (l + 1) * math.factorial(l - 1)
        for block in partition:
            key = frozenset(block)
            if key not in table:
                raise MissingSubset(f"no correlation value for subset {sorted(key)}")
            term *= table[key]
        total += term
    return total


def correlations_from_connected(tvalues, n):
    """Moebius inverse: rebuild the normalized correlation from connected ones."""
    if n > 5:
        raise SizeLimitExceeded("supported for n <= 5")
    table = {frozenset(key): float(value) for key, value in tvalues.items()}
    for i in range(1, n + 1):
        table.setdefault(frozenset([i]), 1.0)
    total = 0.0
    for partition in set_partitions(n):
        term = 1.0
        for block in partition:
            key = frozenset(block)
            if key not in table:
                raise MissingSubset(f"no connected value for subset {sorted(key)}")
            term *= table[key]
        total += term
    return total


def _edge_weight(dist):
    return dist * dist * math.exp(-dist * dist / 2.0)


def decay_bound(points):
    """Dominant connected-multigraph bound on connected correlations.

    Maximizes the product of r^2 e^{-r^2/2} edge factors over connected
    multigraphs on the points with every vertex of degree >= 2 and at
    most 2n edges in total.  Every factor is at most 2/e < 1, and lowering
    a multiplicity above 2 to 2 keeps the graph admissible, so only
    multiplicities 0, 1 and 2 are searched.  Supported for 2 <= n <= 5.
    """
    points = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]
    n = len(points)
    if n < 2:
        raise DomainError("a connected correlation needs at least 2 points")
    if n > 5:
        raise SizeLimitExceeded("decay bound supported for 2 <= n <= 5")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = [
        _edge_weight(np.linalg.norm(points[i] - points[j])) for i, j in pairs
    ]
    best = 0.0
    for mult in product(range(3), repeat=len(pairs)):
        if not 2 <= sum(mult) <= 2 * n:
            continue
        degree = [0] * n
        for (i, j), e in zip(pairs, mult):
            degree[i] += e
            degree[j] += e
        if min(degree) < 2:
            continue
        if not _connected(n, pairs, mult):
            continue
        value = 1.0
        for w, e in zip(weights, mult):
            value *= w ** e
        best = max(best, value)
    return best


def _connected(n, pairs, mult):
    adjacency = {i: set() for i in range(n)}
    for (i, j), e in zip(pairs, mult):
        if e > 0:
            adjacency[i].add(j)
            adjacency[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n
