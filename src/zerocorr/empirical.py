"""Empirical zero statistics of degree-N random polynomials (m = 1, k = 1).

Samples polynomials with binomially weighted independent Gaussian
coefficients, extracts their roots, and estimates the scaled pair
correlation of the root process for comparison against the closed form.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, InsufficientDegree, RootFindingFailed, WindowTooLarge
from .gaussian import philox

MAX_WINDOW = 5.0
LIMIT_INTENSITY = 1.0 / np.pi  # zeros per unit area in scaled coordinates
RESIDUAL_RATIO = 1e-10  # polished |p(z)| over its termwise magnitude bound
TAIL_RATIO = 1e-16  # truncated tail over the largest term on the certificate circle
CERTIFICATE_FACTORS = (1.5, 1.3, 1.8)  # certificate radius over window radius, in order


def worker_count():
    """Workers of the empirical estimator: 1, since it runs serially."""
    return 1


@dataclass(frozen=True)
class PolynomialSample:
    """Affine-chart coefficients of one random polynomial, lowest power first."""

    degree: int
    coeffs: np.ndarray


def sample_su2_polynomial(N, seed, stream=0):
    """Draw p(z) = sum_j sqrt(binom(N, j)) c_j z^j with standard complex c_j.

    Binomial weights are assembled in the log domain so degrees up to 2000
    stay finite.  Deterministic for a fixed (seed, stream).
    """
    if not 2 <= N <= 2000:
        raise DomainError("degree must satisfy 2 <= N <= 2000")
    j = np.arange(N + 1)
    half_log_binom = 0.5 * (gammaln(N + 1) - gammaln(j + 1) - gammaln(N - j + 1))
    rng = philox(seed, stream)
    g = rng.normal(scale=np.sqrt(0.5), size=(N + 1, 2))
    c = g[:, 0] + 1j * g[:, 1]
    return PolynomialSample(degree=N, coeffs=np.exp(half_log_binom) * c)


def _polish(poly, roots, steps):
    """Newton-polish roots of a highest-power-first polynomial, keeping the best."""
    deriv = np.polyder(poly)
    best = roots
    best_res = np.abs(np.polyval(poly, best))
    for _ in range(steps):
        slope = np.polyval(deriv, roots)
        slope = np.where(slope == 0, 1.0, slope)
        roots = roots - np.polyval(poly, roots) / slope
        res = np.abs(np.polyval(poly, roots))
        improved = res < best_res
        best = np.where(improved, roots, best)
        best_res = np.where(improved, res, best_res)
    bound = np.polyval(np.abs(poly), np.abs(best))
    return best, best_res, bound


def _polish_all(poly, raw, steps):
    """Polish raw roots of a highest-power-first polynomial.

    Returns the polished roots and the worst residual ratio: |p(z)| over
    the termwise magnitude bound, maximized over the roots.  Roots of
    modulus above 1 are polished through the reversed polynomial so
    high-degree terms never overflow.
    """
    inner = np.abs(raw) <= 1.0
    out = np.empty_like(raw)
    worst = 0.0
    if inner.any():
        polished, res, bound = _polish(poly, raw[inner], steps)
        out[inner] = polished
        worst = max(worst, float((res / bound).max()))
    if (~inner).any():
        # z is a root of p iff 1/z is a root of the reversed polynomial
        polished, res, bound = _polish(poly[::-1], 1.0 / raw[~inner], steps)
        out[~inner] = 1.0 / polished
        worst = max(worst, float((res / bound).max()))
    return out, worst


def _certified_window_roots(poly, radius, factor, steps):
    """Roots of modulus <= radius, certified on the circle |z| = factor * radius.

    Returns None when the certificate fails.  With R = factor * radius and
    z = R zeta, the series is truncated at the lowest degree d whose exact
    tail sum_{j>d} |a_j| R^j is below TAIL_RATIO of the largest term.  By
    Rouche, p has as many zeros in |z| < R as the truncation P_d has in
    |zeta| < 1 whenever min |P_d| on the unit circle exceeds the tail plus
    the rounding of the scaling and of the evaluation.  That minimum is
    bounded below from FFT samples of P_d and P_d' with a second-derivative
    remainder on each arc, and the same bound makes the winding number of
    the samples the zero count K.  The companion roots of P_d inside the
    unit disk are Newton-polished against the full p; they must pass the
    residual certificate, stay inside |z| < R, be pairwise distinct, and
    number exactly K.
    """
    eps = np.finfo(float).eps
    R = factor * radius
    coeffs = poly[::-1]  # lowest power first
    with np.errstate(divide="ignore"):
        log_terms = np.log(np.abs(coeffs)) + np.arange(len(coeffs)) * np.log(R)
    terms = np.exp(log_terms - log_terms.max())  # |a_j| R^j over the largest term
    tails = np.append(np.cumsum(terms[::-1])[::-1], 0.0)  # tails[j] = sum_{i >= j}
    d = int(np.argmax(tails[1:] < TAIL_RATIO))
    weights = terms[: d + 1]
    head = weights * np.exp(1j * np.angle(coeffs[: d + 1]))  # P_d, lowest power first
    j = np.arange(d + 1)

    # Lower bound of |P_d| on the arc of half-width step / 2 around each sample.
    # Sampling 400 times per rms power voids it only for a zero within
    # about pi / (400 * rms power) of the unit circle.
    size, first, second = weights.sum(), (j * weights).sum(), (j ** 2 * weights).sum()
    rms_power = np.sqrt(second / size)
    samples = 1 << int(np.ceil(np.log2(max(64, d + 1, 400.0 * rms_power))))
    step = 2.0 * np.pi / samples
    values = np.fft.ifft(head, samples) * samples  # P_d at the samples' unit roots
    slopes = np.fft.ifft(j * head, samples) * samples  # zeta P_d'(zeta) there
    fft_error = 8.0 * eps * np.log2(samples)  # per sample, relative to size
    scaling_error = 4.0 * eps * (np.abs(log_terms[np.isfinite(log_terms)]).max() + 2.0)
    lower = (
        np.abs(values) - fft_error * size
        - 0.5 * step * (np.abs(slopes) + fft_error * first)
        - 0.125 * step ** 2 * second
    )
    if lower.min() <= 2.0 * tails[d + 1] + scaling_error * size:
        return None
    count = int(round(np.angle(np.roll(values, -1) / values).sum() / (2.0 * np.pi)))

    raw = R * np.roots(head[::-1])
    raw = raw[np.abs(raw) < R]
    roots, worst = _polish_all(poly, raw, steps)
    if worst > RESIDUAL_RATIO or len(roots) != count or np.any(np.abs(roots) >= R):
        return None
    if count > 1:
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(count) * R
        if gaps.min() <= np.sqrt(eps) * R:
            return None
    return roots[np.abs(roots) <= radius]


def polynomial_roots(sample, polish_steps=3, radius=None):
    """Affine roots: companion-matrix eigenvalues plus Newton polishing.

    Without ``radius``, returns all affine roots.  Vanishing leading
    coefficients are dropped (those roots sit at infinity, outside the
    affine chart).  Roots of modulus above 1 are polished through the
    reversed polynomial so high-degree terms never overflow.  Each
    polished root must satisfy |p(z)| <= 1e-10 times the termwise
    magnitude bound, else ``RootFindingFailed`` is raised.

    With ``radius``, returns only the roots of modulus <= radius (window
    mode), in no particular order.  The polynomial is rescaled to a
    certificate circle |z| = R a little beyond the window (R = 1.5
    radius), its series truncated where the exact tail falls below 1e-16
    of the largest term on that circle, and the companion roots of the
    truncation inside the circle are Newton-polished against the full
    polynomial under the same residual certificate.  A Rouche certificate
    on |z| = R proves the count: the truncation bounded away from zero on
    the circle by more than the tail, and as many distinct polished roots
    inside R as its winding number.  If the certificate fails, it is
    retried at R = 1.3 and 1.8 radius; if those fail too, the full solve
    runs and its roots in the window are returned, raising
    ``RootFindingFailed`` exactly as without ``radius``.
    """
    coeffs = sample.coeffs
    effective = len(coeffs) - 1
    while effective > 0 and coeffs[effective] == 0:
        effective -= 1
    if effective == 0:
        return np.zeros(0, dtype=complex)
    poly = coeffs[: effective + 1][::-1]  # highest power first, for numpy
    if radius is not None:
        if not (np.isfinite(radius) and radius > 0):
            raise DomainError("radius must be positive and finite")
        for factor in CERTIFICATE_FACTORS:
            roots = _certified_window_roots(poly, radius, factor, polish_steps)
            if roots is not None:
                return roots
    roots, worst = _polish_all(poly, np.roots(poly), polish_steps)
    if worst > RESIDUAL_RATIO:
        raise RootFindingFailed(f"worst polished residual ratio {worst:.3e}")
    return roots if radius is None else roots[np.abs(roots) <= radius]


@dataclass
class PairHistogram:
    """Accumulated pair counts of scaled roots, with Poisson normalization."""

    bin_edges: np.ndarray
    counts: np.ndarray
    normalizer: np.ndarray
    samples: int
    count_sumsq: np.ndarray = field(default=None)
    total_roots: int = 0

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def g_estimate(self):
        return self.counts / self.normalizer

    @property
    def stderr(self):
        per_sample_norm = self.normalizer / self.samples
        mean = self.counts / self.samples
        var = np.maximum(self.count_sumsq / self.samples - mean ** 2, 0.0)
        return np.sqrt(var / self.samples) / per_sample_norm


def _cap_area(radius, N):
    """Scaled area of a geodesic cap of scaled radius on the projective line.

    The round metric of the model has caps of area pi sin(d)^2 at geodesic
    radius d; scaled coordinates multiply areas by N.  For small radius
    this reduces to the flat disk area pi r^2.
    """
    return np.pi * N * np.sin(radius / np.sqrt(N)) ** 2


def _sample_chart_points(N, seed, stream, window, process):
    """One sample's affine-chart points inside the geodesic window.

    Returns (points, total point count of the sample).  For the root
    process the roots come from the window mode of ``polynomial_roots``,
    which finds only the roots inside the window, and the total is the
    degree N: every root, including those lost to infinity through a
    degree deficiency.
    """
    chart_window = np.tan(window / np.sqrt(N))
    if process == "poisson":
        # Calibration input: uniform points at the limit intensity with
        # respect to the model volume of the window cap.
        rng = philox(seed, stream)
        expected = LIMIT_INTENSITY * _cap_area(window, N)
        count = rng.poisson(expected)
        # Radial inverse CDF of the uniform law on the cap, chart radius t:
        # P(|z| <= t) is proportional to t^2 / (1 + t^2).
        cap = chart_window ** 2 / (1.0 + chart_window ** 2)
        s = cap * rng.uniform(size=count)
        radii = np.sqrt(s / (1.0 - s))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return radii * np.exp(1j * angles), count
    sample = sample_su2_polynomial(N, seed, stream)
    return polynomial_roots(sample, radius=chart_window), N


def _scaled_geodesic(N, first, second):
    """Scaled geodesic distances between chart points, as a matrix.

    The chordal distance |z - z'| / sqrt((1+|z|^2)(1+|z'|^2)) is the sine
    of the geodesic distance on the projective line.
    """
    num = np.abs(first[:, None] - second[None, :])
    den = np.sqrt(
        (1.0 + np.abs(first) ** 2)[:, None] * (1.0 + np.abs(second) ** 2)[None, :]
    )
    return np.sqrt(N) * np.arcsin(np.clip(num / den, 0.0, 1.0))


def pair_correlation_estimate(N, samples, window, bins, seed, process="roots"):
    """Histogram estimate of the scaled pair correlation of the root process.

    Roots are collected in the geodesic cap of scaled radius ``window``
    around the chart origin; ordered pairs whose first member lies in the
    core cap of radius window - max(bins) are binned by scaled geodesic
    separation.  The normalizer uses the exact cap and annulus areas of
    the round geometry, so count/normalizer estimates the pair correlation
    at the bin with only the O(1/N) scaling bias plus sampling noise.

    Each polynomial's roots are found in window mode
    (``polynomial_roots(sample, radius=tan(window / sqrt(N)))``): only the
    roots inside the window, from a truncated series on a certificate
    circle 1.5 times the window's chart radius, with the root count
    certified by Rouche and a fallback to the full companion solve when
    the certificate fails.  This finds the same roots as the full solve,
    so the histogram is the same, at a fraction of the cost.

    ``process="poisson"`` replaces the roots by uniform points of the same
    intensity, for estimator calibration.  The standard error needs at least
    two samples; fewer raise ``DomainError``.
    """
    if samples < 2:
        raise DomainError(f"the pair estimate needs at least 2 samples, got {samples}")
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1 or len(bins) < 2 or np.any(np.diff(bins) <= 0):
        raise DomainError("bins must be increasing edges")
    r_max = bins[-1]
    if window > MAX_WINDOW or r_max > window:
        raise WindowTooLarge(
            f"window {window} with bins up to {r_max} exceeds supported range"
        )
    core_radius = window - r_max
    if core_radius <= 0:
        raise WindowTooLarge("core disk is empty: window must exceed the largest bin edge")
    if process == "roots" and N < 25.0 * window ** 2:
        raise InsufficientDegree(f"need N >= 25 * window^2 = {25 * window ** 2:.0f}")

    nbins = len(bins) - 1
    chart_core = np.tan(core_radius / np.sqrt(N))
    counts = np.zeros(nbins, dtype=np.int64)
    sumsq = np.zeros(nbins, dtype=float)
    total_roots = 0
    for index in range(samples):
        points, total = _sample_chart_points(N, seed, index, window, process)
        local = np.zeros(nbins, dtype=np.int64)
        if len(points) >= 2:
            core_index = np.where(np.abs(points) <= chart_core)[0]
            if len(core_index):
                dists = _scaled_geodesic(N, points[core_index], points)
                dists[np.arange(len(core_index)), core_index] = -1.0  # drop self-pairs
                flat = dists[(dists >= bins[0]) & (dists < r_max)]
                local = np.histogram(flat, bins=bins)[0]
        counts += local
        sumsq += local.astype(float) ** 2
        total_roots += total

    area_core = _cap_area(core_radius, N)
    area_annuli = _cap_area(bins[1:], N) - _cap_area(bins[:-1], N)
    normalizer = samples * LIMIT_INTENSITY ** 2 * area_core * area_annuli
    return PairHistogram(
        bin_edges=bins,
        counts=counts,
        normalizer=normalizer,
        samples=samples,
        count_sumsq=sumsq,
        total_roots=total_roots,
    )
