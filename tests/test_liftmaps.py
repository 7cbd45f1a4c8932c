import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_record, lift_oracle
from kfacets.errors import InputError
from kfacets.geometry import point_set
from kfacets.liftmaps import (
    MonomialMap,
    circle_map,
    homogeneous_veronese,
    map_from_key,
    moment_curve,
    neighborly_embedding,
    veronese,
)

F = Fraction


def image(mmap, point):
    """The lift of one point, as ``MonomialMap.apply`` gives it."""
    return mmap.apply(point_set([point])).points[0]


class TestVeronese:
    def test_plane_quadratic_coordinate_order(self):
        vm = veronese(2, 2)
        assert vm.coords == tuple(((1, e),) for e in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])

    def test_plane_quadratic_evaluation(self):
        vm = veronese(2, 2)
        assert image(vm, (F(2), F(3))) == (2, 3, 4, 6, 9)

    def test_cubic_order_descends_within_degree(self):
        cubics = [e for ((_, e),) in veronese(2, 3).coords if sum(e) == 3]
        assert cubics == [(3, 0), (2, 1), (1, 2), (0, 3)]

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_target_dim_formula(self, d, m):
        vm = veronese(d, m)
        assert vm.target_dim == comb(d + m, m) - 1

    def test_identity_when_degree_one(self):
        vm = veronese(3, 1)
        assert image(vm, (F(1), F(2), F(3))) == (1, 2, 3)


class TestHomogeneous:
    def test_plane_quadratic(self):
        hm = homogeneous_veronese(2, 2)
        assert hm.coords == tuple(((1, e),) for e in [(2, 0), (1, 1), (0, 2)])
        assert image(hm, (F(2), F(3))) == (4, 6, 9)

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_target_dim_formula(self, d, m):
        hm = homogeneous_veronese(d, m)
        assert hm.target_dim == comb(d + m - 1, m)


class TestNamedMaps:
    def test_circle_lift(self):
        cm = circle_map()
        assert image(cm, (F(3), F(4))) == (3, 4, 25)

    def test_moment_curve_is_univariate_veronese(self):
        mc = moment_curve(4)
        assert mc.source_dim == 1 and mc.target_dim == 4
        assert image(mc, (F(2),)) == (2, 4, 8, 16)

    def test_neighborly_embedding_shape(self):
        em = neighborly_embedding(2, 3)
        # powers of x1 up to 4, then the remaining source coordinates
        assert em.source_dim == 3 and em.target_dim == 2 * 2 + 3 - 1
        assert image(em, (F(2), F(5), F(7))) == (2, 4, 8, 16, 5, 7)

    def test_apply_preserves_labels(self):
        ps = point_set([(1, 2), (3, 4)], labels=["a", "b"])
        out = circle_map().apply(ps)
        assert out.labels == ("a", "b")
        assert out.points[0] == (1, 2, 5)


class TestMonomialMap:
    def test_general_polynomial_coordinates(self):
        # phi(x, y) = (x + y, x*y - 2)? constant terms are rejected; use x*y - 2x
        mm = MonomialMap(2, (((F(1), (1, 0)), (F(1), (0, 1))),
                             ((F(1), (1, 1)), (F(-2), (1, 0)))))
        assert image(mm, (F(3), F(4))) == (7, 6)

    def test_constant_term_rejected(self):
        with pytest.raises(InputError):
            MonomialMap(1, (((F(1), (0,)),),))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InputError):
            MonomialMap(1, (((F(0), (1,)),),))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputError):
            MonomialMap(2, (((F(1), (1,)),),))

    def test_coefficients_stored_as_ints(self):
        mm = MonomialMap(1, (((F(4, 2), (1,)), (-3, (2,))),))
        assert mm.coords == (((2, (1,)), (-3, (2,))),)
        assert all(type(c) is int for c, _ in mm.coords[0])

    @pytest.mark.parametrize("coef", [F(1, 2), True, 1.0, "1"])
    def test_non_integer_coefficient_rejected(self, coef):
        with pytest.raises(InputError, match="is not an integer"):
            MonomialMap(1, (((coef, (1,)),),))

    def test_source_dimension_checked_by_apply(self):
        with pytest.raises(InputError, match="point has dim 3, map expects 2"):
            circle_map().apply(point_set([(1, 2, 3)]))
        with pytest.raises(InputError, match="point has dim 1, map expects 2"):
            circle_map().apply(point_set([(1,)]))


FRACTIONS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 7)))
# mixed degrees and signs: the rows scale each term by D^(top - |e|)
CUSTOM = MonomialMap(2, (((3, (2, 1)), (-2, (0, 1))),
                         ((-1, (1, 0)),),
                         ((5, (0, 3)), (-7, (1, 1)), (1, (1, 0)))))
LIFTS = [veronese(1, 3), veronese(2, 2), veronese(3, 2), homogeneous_veronese(2, 2),
         homogeneous_veronese(3, 3), circle_map(), neighborly_embedding(2, 1),
         neighborly_embedding(2, 3), CUSTOM]


@given(st.sampled_from(LIFTS), st.data())
@settings(max_examples=200, deadline=None)
def test_row_born_lift_matches_fraction_oracle(mmap, data):
    pts = data.draw(st.lists(st.tuples(*[FRACTIONS] * mmap.source_dim), min_size=1, max_size=6))
    lifted = mmap.apply(point_set(pts))
    assert lifted.points == tuple(lift_oracle(mmap, pt) for pt in pts)
    # the rows a lift writes are the rows PointSet derives from its points
    assert lifted.rows == point_set(lifted.points).rows
    assert image(mmap, pts[-1]) == lifted.points[-1]


class TestMapFromKey:
    @pytest.mark.parametrize("key,src,tgt", [
        ("veronese:2:2", 2, 5),
        ("hveronese:2:2", 2, 3),
        ("circle", 2, 3),
        ("moment:5", 1, 5),
        ("embed:2:2", 2, 5),
    ])
    def test_known_keys(self, key, src, tgt):
        mm = map_from_key(key)
        assert (mm.source_dim, mm.target_dim) == (src, tgt)

    def test_unknown_key(self):
        with pytest.raises(InputError):
            map_from_key("parabola:3")


class TestRecords:
    def test_monomial_map_contract(self):
        coords = (((1, (1,)),), ((2, (2,)), (-1, (1,))))
        assert_record(MonomialMap, {"source_dim": 1, "coords": coords},
                      "MonomialMap(source_dim=1, coords=(((1, (1,)),), ((2, (2,)), (-1, (1,)))))",
                      coords=coords[:1])
        assert moment_curve(2) == MonomialMap(1, (((1, (1,)),), ((1, (2,)),)))

    def test_coefficients_and_exponents_coerced(self):
        mm = MonomialMap(1, [[(F(4, 2), [1]), (-3, (2,))], ((F(-1), (3,)),)])
        assert mm == MonomialMap(1, (((2, (1,)), (-3, (2,))), ((-1, (3,)),)))
        assert hash(mm) == hash(MonomialMap(1, (((2, (1,)), (-3, (2,))), ((-1, (3,)),))))
        assert mm.coords == (((2, (1,)), (-3, (2,))), ((-1, (3,)),))
        assert all(type(c) is int and type(e) is tuple for terms in mm.coords for c, e in terms)
        assert type(mm.coords) is tuple and all(type(terms) is tuple for terms in mm.coords)

    @pytest.mark.parametrize("source_dim,coords,message", [
        (0, (((1, ()),),), "source_dim must be >= 1"),
        (1, (), "map needs at least one output coordinate"),
        (1, (((1, (1,)),), ()), "empty coordinate polynomial"),
        (1, (((F(1, 2), (1,)),),), "coefficient Fraction(1, 2) is not an integer"),
        (1, (((True, (1,)),),), "coefficient True is not an integer"),
        (1, ((("1", (1,)),),), "coefficient '1' is not an integer"),
        (2, (((1, (1,)),),), "exponent vector (1,) has wrong arity"),
        (1, (((0, (1,)),),), "zero coefficient term"),
        (2, (((1, (0, 0)),),), "constant terms are not allowed"),
        (2, (((1, (2, -1)),),), "negative exponent"),
    ])
    def test_refusals(self, source_dim, coords, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            MonomialMap(source_dim, coords)
