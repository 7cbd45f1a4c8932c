"""Rational inputs through the cached homogeneous integer rows.

Every exact predicate reads ``PointSet.rows``, the points as (D_j x_j, D_j)
with D_j the lcm of their denominators.  These sets mix small denominators,
repeat points and put some points on a flat of lower dimension, and every
answer is checked against the Fraction oracles of ``conftest``.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (k_sets_oracle, plane_signs, plane_value, profile_oracle,
                      violating_subset_oracle)
from kfacets.errors import DegeneracyError
from kfacets.facelab import FaceCertificate
from kfacets.facets import enumerate_k_sets, k_facet_profile, k_set_counts
from kfacets.geometry import Hyperplane, is_general_linear_position, point_set

FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 7)))


@st.composite
def rational_sets(draw, max_free=6):
    """Points in dim 1 to 4 with mixed small denominators: free points, then
    maybe up to three points on a flat through one of them, then maybe one
    point drawn again."""
    dim = draw(st.integers(1, 4))
    coord = st.tuples(*[FRACTIONS] * dim)
    pts = draw(st.lists(coord, min_size=1, max_size=max_free))
    if draw(st.booleans()):
        base = draw(st.sampled_from(pts))
        rank = draw(st.integers(0, dim - 1))
        dirs = draw(st.lists(coord, min_size=rank, max_size=rank))
        for cs in draw(st.lists(st.tuples(*[FRACTIONS] * rank), min_size=1, max_size=3)):
            pts.append(tuple(b + sum(c * v[axis] for c, v in zip(cs, dirs))
                             for axis, b in enumerate(base)))
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    return point_set(pts)


@given(rational_sets())
@settings(max_examples=200, deadline=None)
def test_rows_are_positive_multiples_of_the_points(ps):
    for pt, (*xs, den) in zip(ps.points, ps.rows):
        assert den == lcm(*(c.denominator for c in pt)) > 0
        assert tuple(Fraction(x, den) for x in xs) == pt


@given(rational_sets())
@settings(max_examples=150, deadline=None)
def test_profile_matches_oracle(ps):
    if ps.n < ps.dim:
        return
    try:
        expected = profile_oracle(ps)
    except ValueError:
        with pytest.raises(DegeneracyError):
            k_facet_profile(ps)
        return
    assert violating_subset_oracle(ps) is None
    assert k_facet_profile(ps).e == expected


@given(rational_sets())
@settings(max_examples=150, deadline=None)
def test_general_position_matches_oracle(ps):
    assert is_general_linear_position(ps) == (violating_subset_oracle(ps) is None)


@given(rational_sets(max_free=5))
@settings(max_examples=40, deadline=None)
def test_k_sets_match_oracle(ps):
    oracle = {k: k_sets_oracle(ps, k) for k in range(1, ps.n)}
    assert k_set_counts(ps) == tuple(len(oracle[k]) for k in range(1, ps.n))
    for k, sets in oracle.items():
        assert enumerate_k_sets(ps, k).sets == sets


@given(rational_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_certificate_and_side_checks_match_raw_eval(ps, data):
    normal = data.draw(st.tuples(*[FRACTIONS] * ps.dim).filter(any))
    levels = [sum(a * x for a, x in zip(normal, pt)) for pt in ps.points]
    # a supporting plane half the time, so that some certificates pass
    offset = data.draw(st.one_of(FRACTIONS, st.just(min(levels))))
    h = Hyperplane(normal, offset)
    values = [plane_value(h, pt) for pt in ps.points]
    assert plane_signs(h, ps) == [(v > 0) - (v < 0) for v in values]
    subset = data.draw(st.one_of(
        st.just(tuple(i for i, v in enumerate(values) if v == 0)),
        st.lists(st.integers(0, ps.n - 1), unique=True).map(tuple)))
    for strict in (True, False):
        expected = all(values[i] == 0 if i in subset else
                       values[i] > 0 or (not strict and values[i] == 0)
                       for i in range(ps.n))
        assert FaceCertificate(h, strict).validate(ps, subset) == expected
