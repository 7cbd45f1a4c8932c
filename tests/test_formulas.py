from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_record
from kfacets.errors import InputError
from kfacets.facets import k_facet_profile
from kfacets.formulas import (
    FORMULAS,
    CountFormula,
    binom,
    circle_count,
    conic_count,
    convex_3d_count,
    generally_neighborly_dim,
    homogeneous_count,
    neighborly_e_k,
)
from kfacets.genpos import convex_position_set


class TestBinom:
    def test_matches_comb_in_range(self):
        assert binom(5, 2) == comb(5, 2) == 10

    def test_zero_out_of_range(self):
        assert binom(3, 5) == 0
        assert binom(-1, 0) == 0
        assert binom(4, -2) == 0


class TestNeighborlyCount:
    def test_odd_dimension_anchor(self):
        # d = 3: 2(k+1)(n-k-2); n = 5, k = 1 -> 8
        assert neighborly_e_k(5, 3, 1) == 8
        assert neighborly_e_k(5, 3, 0) == 2 * 1 * 3

    def test_five_dimensional_anchor(self):
        # d = 5: 2 C(k+2,2) C(n-k-3,2); n = 9, k = 0 -> 2*1*15
        assert neighborly_e_k(9, 5, 0) == 30

    def test_even_dimension_hull_level(self):
        # k = 0 gives the cyclic polytope facet count: C(6,4) has 9 facets
        assert neighborly_e_k(6, 4, 0) == 9

    def test_symmetry(self):
        for n, d in [(8, 3), (9, 4), (10, 5)]:
            vals = [neighborly_e_k(n, d, k) for k in range(n - d + 1)]
            assert vals == vals[::-1]

    def test_total_is_twice_choose(self):
        for n, d in [(7, 2), (8, 3), (9, 4)]:
            assert sum(neighborly_e_k(n, d, k) for k in range(n - d + 1)) \
                == 2 * comb(n, d)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            neighborly_e_k(3, 3, 0)
        with pytest.raises(InputError):
            neighborly_e_k(7, 3, 5)


class TestLiftCounts:
    def test_circle_anchor_values(self):
        assert [circle_count(7, k) for k in range(5)] == [10, 16, 18, 16, 10]
        assert circle_count(5, 1) == 8  # halving count 4 unoriented

    def test_circle_halving_is_square(self):
        for m in range(2, 8):
            n = 2 * m + 1
            assert circle_count(n, (n - 3) // 2) == 2 * m * m

    def test_circle_matches_neighborly_dim3(self):
        for n in (5, 7, 9, 11):
            for k in range(n - 2):
                assert circle_count(n, k) == neighborly_e_k(n, 3, k)

    def test_conic_anchor_values(self):
        assert conic_count(7, 0) == 12
        assert conic_count(9, 2) == 72
        assert [conic_count(9, k) for k in range(5)] == [30, 60, 72, 60, 30]

    def test_conic_matches_neighborly_dim5(self):
        for n in (7, 9, 11):
            for k in range(n - 4):
                assert conic_count(n, k) == neighborly_e_k(n, 5, k)

    def test_homogeneous_anchor_values(self):
        assert [homogeneous_count(8, 2, k) for k in range(6)] \
            == [12, 20, 24, 24, 20, 12]
        assert homogeneous_count(9, 4, 0) == 2 * binom(2, 2) * binom(6, 2)

    def test_homogeneous_matches_neighborly(self):
        # degree-m homogeneous lift of the plane counts like dim m + 1
        for m in (2, 4):
            for n in range(m + 2, m + 8):
                for k in range(n - m):
                    assert homogeneous_count(n, m, k) \
                        == neighborly_e_k(n, m + 1, k)

    def test_convex_3d_anchor(self):
        assert convex_3d_count(6, 1) == 2 * 2 * 6 - 4 * 3
        assert convex_3d_count(4, 0) == 8 - 4

    def test_convex_3d_interior_exceeds_neighborly(self):
        # convex position forces more facets than the neighborly minimum
        for n in (6, 8, 10):
            for k in range(1, n - 3):
                assert convex_3d_count(n, k) >= neighborly_e_k(n, 3, k)

    def test_convex_3d_hull_matches_neighborly(self):
        for n in (4, 5, 6, 9):
            assert convex_3d_count(n, 0) == neighborly_e_k(n, 3, 0)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            circle_count(6, 0)
        with pytest.raises(InputError):
            circle_count(3, 0)
        with pytest.raises(InputError):
            conic_count(5, 0)
        with pytest.raises(InputError):
            homogeneous_count(9, 3, 0)
        with pytest.raises(InputError):
            homogeneous_count(3, 2, 0)
        with pytest.raises(InputError):
            convex_3d_count(6, 4)


class TestEngineAgainstFormulas:
    """The sweep's profile of a moment-curve set, a neighborly polytope in
    every dimension, against the closed forms."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_convex_position_profile_is_neighborly(self, d):
        for n in range(d + 2, d + 7):
            for seed in (0, 1):
                assert k_facet_profile(convex_position_set(n, d, seed)).e \
                    == tuple(neighborly_e_k(n, d, k) for k in range(n - d + 1)), (n, seed)

    @pytest.mark.parametrize("n", range(5, 12))
    def test_convex_position_profile_in_space(self, n):
        for seed in (0, 1):
            assert k_facet_profile(convex_position_set(n, 3, seed)).e \
                == tuple(convex_3d_count(n, k) for k in range(n - 2)), seed


class TestDimensionFormulas:
    def test_embedding_dimension(self):
        assert generally_neighborly_dim(2, 2) == 5
        assert generally_neighborly_dim(1, 3) == 4
        assert generally_neighborly_dim(3, 2) == 7

    def test_embedding_dim_at_most_perles_upper(self):
        for k in range(2, 6):
            for d in range(1, 6):
                # Perles' upper bound 2k(k - 1)d on the lift dimension
                assert generally_neighborly_dim(k, d) <= 2 * k * (k - 1) * d + d

    def test_domain_errors(self):
        with pytest.raises(InputError):
            generally_neighborly_dim(0, 2)


class TestRegistry:
    def test_names_and_arity(self):
        assert set(FORMULAS) == {"neighborly-ek", "circle", "conic",
                                 "homogeneous", "convex3d", "embed-dim"}
        assert FORMULAS["circle"].params == ("n", "k")
        assert FORMULAS["circle"].fn(7, 2) == 18

    @given(st.integers(5, 15), st.integers(3, 5))
    @settings(max_examples=40, deadline=None)
    def test_neighborly_registry_roundtrip(self, n, d):
        if n <= d:
            return
        f = FORMULAS["neighborly-ek"]
        assert f.fn(n, d, 0) == neighborly_e_k(n, d, 0)


class TestRecords:
    def test_count_formula_contract(self):
        assert_record(CountFormula, {"name": "circle", "params": ("n", "k"), "fn": circle_count},
                      f"CountFormula(name='circle', params=('n', 'k'), fn={circle_count!r})",
                      fn=conic_count)
        assert FORMULAS["circle"] == CountFormula("circle", ("n", "k"), circle_count)
