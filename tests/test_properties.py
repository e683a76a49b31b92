"""Property tests of the invariances the models guarantee, over wide domains.

The flat models are translation invariant, the projective model is
invariant under the unitary group U(m+1) acting on projective m-space, and
its one-point density does not depend on the point.  These hold to rounding
however far the points lie from the origin and however large the level N.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerocorr.closed_form import density
from zerocorr.kac_rice import CorrelationQuery, correlation, normalized_correlation
from zerocorr.kernels import FubiniStudy, HeisenbergLevel, HeisenbergLimit

PROPERTY = settings(deadline=None, max_examples=30)

coordinate = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def vectors(m, element=coordinate):
    return st.lists(element, min_size=m, max_size=m).map(np.array)


def cluster(data, m, n, min_sep=0.3):
    """n points with coordinates of modulus <= 1, pairwise >= min_sep apart."""
    points = [data.draw(vectors(m)) for _ in range(n)]
    assume(all(np.linalg.norm(p - q) >= min_sep
               for i, p in enumerate(points) for q in points[i + 1:]))
    return points


def unit_vector(data, m):
    v = data.draw(vectors(m))
    norm = np.linalg.norm(v)
    assume(norm > 0.1)
    return v / norm


def pair_value(model, k, points):
    query = CorrelationQuery(model=model, n=len(points), k=k,
                             points=tuple(tuple(p) for p in points))
    return normalized_correlation(query)[0]


@PROPERTY
@given(data=st.data(), m=st.integers(1, 3), n=st.integers(2, 3),
       N=st.one_of(st.none(), st.integers(1, 10 ** 4)),
       distance=st.floats(0.0, 1e3))
def test_flat_translation_invariance(data, m, n, N, distance):
    model = HeisenbergLimit(m) if N is None else HeisenbergLevel(N, m)
    points = [p / math.sqrt(model.N) for p in cluster(data, m, n)]
    offset = distance * unit_vector(data, m)
    base = pair_value(model, 1, points)
    moved = pair_value(model, 1, [p + offset for p in points])
    assert np.isclose(moved, base, rtol=1e-8, atol=0.0)


def projective_image(unitary, z):
    """Affine coordinates of the image of the point z under a unitary of C^(m+1)."""
    image = unitary @ np.concatenate([[1.0], z])
    assume(abs(image[0]) >= 1e-5 * np.linalg.norm(image))
    return image[1:] / image[0]


def unitary_from(data, column):
    """A unitary of C^(m+1) whose first column is column / |column|, up to a phase."""
    rest = [data.draw(vectors(len(column))) for _ in range(len(column) - 1)]
    unitary, _ = np.linalg.qr(np.column_stack([column, *rest]))
    return unitary


@PROPERTY
@given(data=st.data(), m=st.integers(1, 3), n=st.integers(2, 3),
       N=st.integers(3, 10 ** 5), two_sections=st.booleans(), reach=st.integers(0, 4))
def test_fubini_study_unitary_invariance(data, m, n, N, two_sections, reach):
    # N >= 3 keeps n points independent: degree-N sections on a projective
    # line span only N + 1 dimensions.  The unitary takes the cluster's
    # center to affine modulus about 10^reach.
    k = 2 if two_sections and m >= 2 else 1
    if k == 2:
        n = 2
    center = data.draw(vectors(m))
    points = [center + p / math.sqrt(N) for p in cluster(data, m, n)]
    target = np.concatenate([[10.0 ** -reach], unit_vector(data, m)])
    unitary = (unitary_from(data, target)
               @ unitary_from(data, np.concatenate([[1.0], center])).conj().T)
    moved = [projective_image(unitary, p) for p in points]
    model = FubiniStudy(N, m)
    assert np.isclose(pair_value(model, k, moved), pair_value(model, k, points),
                      rtol=1e-10, atol=1e-12)


@PROPERTY
@given(data=st.data(), m=st.integers(1, 4), N=st.integers(1, 10 ** 5),
       radius=st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)))
def test_fubini_study_density_independent_of_point(data, m, N, radius):
    model = FubiniStudy(N, m)
    point = radius * unit_vector(data, m)
    for k in range(1, m + 1):
        query = CorrelationQuery(model=model, n=1, k=k, points=(tuple(point),))
        assert np.isclose(correlation(query)[0], density(model, k), rtol=1e-12, atol=0.0)


# Normalized pair correlations at antipodal points, (m, N) -> values for
# k = 1, 2: degree-1 sections have no second zero on a projective line,
# and from N = 3 on antipodal zeros are uncorrelated.
ANTIPODAL = {
    (1, 1): (0.0,), (1, 2): (2.0,), (1, 3): (1.0,), (1, 5): (1.0,),
    (2, 1): (0.5, 0.0), (2, 2): (1.25, 1.5), (2, 3): (1.0, 1.0), (2, 5): (1.0, 1.0),
    (3, 1): (2 / 3, 1 / 3), (3, 2): (10 / 9, 11 / 9), (3, 3): (1.0, 1.0), (3, 5): (1.0, 1.0),
}


@PROPERTY
@given(data=st.data(), m=st.integers(1, 3), N=st.sampled_from([1, 2, 3, 5]),
       radius=st.floats(0.05, 20.0), shift=st.floats(0.0, 5.0))
def test_fubini_study_antipodal_pairs(data, m, N, radius, shift):
    # Antipodal points satisfy 1 + z . conj(w) = 0: w = -z / |z|^2 plus any
    # vector orthogonal to z.
    z = radius * unit_vector(data, m)
    v = data.draw(vectors(m))
    v = v - (np.vdot(z, v) / np.vdot(z, z)) * z
    w = -z / np.vdot(z, z).real + shift * v
    model = FubiniStudy(N, m)
    for k, expected in enumerate(ANTIPODAL[m, N], start=1):
        assert np.isclose(pair_value(model, k, [z, w]), expected, rtol=1e-10, atol=1e-12)
