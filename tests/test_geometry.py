import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_record, canonical_plane, det_perm, plane_signs, plane_value, rank_oracle,
                      violating_subset_oracle)
from test_homogeneous import FRACTIONS
from kfacets.errors import InputError
from kfacets.geometry import (
    Hyperplane,
    _gauss_jordan,
    _nullspace,
    PointSet,
    is_general_linear_position,
    point_set,
    rational,
    rank_int,
)

TRIANGLE_CENTER = point_set([[0, 0], [4, 0], [0, 4], [1, 1]])


@st.composite
def grid_point_sets(draw):
    """1 to 9 points of a small integer grid in dim 1 to 4, often repeated."""
    dim = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=9))
    return point_set(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9)))


class TestRational:
    def test_integers_and_fractions(self):
        assert rational("3") == 3
        assert rational("-3/4") == Fraction(-3, 4)
        assert rational(7) == 7

    def test_decimal_is_exact(self):
        assert rational("0.25") == Fraction(1, 4)
        assert rational("-0.1") == Fraction(-1, 10)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(InputError):
            rational(0.25)
        with pytest.raises(InputError):
            rational("x")

    @pytest.mark.parametrize("value,expected", [
        ("+3", 3), ("-3/4", Fraction(-3, 4)), ("0.25", Fraction(1, 4)), ("-007", -7),
        ("+2/6", Fraction(1, 3)), ("12.50", Fraction(25, 2))])
    def test_documented_grammar(self, value, expected):
        assert rational(value) == expected

    @pytest.mark.parametrize("value", [
        "1_000", " 2 ", "2 ", "0x10", ".5", "5.", "1/2/3", "1.5/2", "3/-4", "--3",
        "", "+", "inf", "nan", "\u0663", "1/ 2", "2\n"])
    def test_rejects_the_rest_of_pythons_grammar(self, value):
        with pytest.raises(InputError, match="cannot parse rational"):
            rational(value)

    def test_zero_denominator(self):
        with pytest.raises(InputError, match="cannot parse rational"):
            rational("1/0")

    @pytest.mark.parametrize("value", ["1e3", "2E-1", "1e999999999"])
    def test_rejects_exponents(self, value):
        with pytest.raises(InputError, match="no exponents"):
            rational(value)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        with pytest.raises(InputError, match="cannot parse rational"):
            rational(value)


def gauss_jordan_det(rows) -> int:
    """The determinant of a square integer matrix as ``_gauss_jordan``
    leaves it: the last pivot at full rank, else 0."""
    _, pivots, last = _gauss_jordan(rows)
    return last if len(pivots) == len(rows) else 0


class TestOrientation:
    """The signed determinant, whose sign orients its rows."""

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_gauss_jordan_det_matches_permutation_sum(self, rows):
        assert gauss_jordan_det(rows) == det_perm([[Fraction(v) for v in r] for r in rows])


@st.composite
def int_matrices(draw):
    """Small integer matrices with 0 to 6 columns, salted with zero rows,
    repeated rows and integer combinations of earlier rows, then shuffled."""
    ncols = draw(st.integers(0, 6))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=3))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combine"]), max_size=2)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(-2, 2))
            rows.append([x + c * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


class TestElimination:
    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_nullspace_basis_matches_rank_oracle(self, matrix):
        ncols, rows = matrix
        basis = _nullspace(rows, ncols)
        rank = rank_oracle(rows)
        assert rank_int(rows) == rank
        assert len(basis) == ncols - rank
        for vec in basis:
            assert all(sum(a * b for a, b in zip(vec, row)) == 0 for row in rows)
        # a column is free iff it adds nothing to the rank of the columns before it
        free = [c for c in range(ncols)
                if rank_oracle([r[:c + 1] for r in rows]) == rank_oracle([r[:c] for r in rows])]
        assert len(free) == len(basis)
        for own, vec in zip(free, basis):
            assert vec[own] > 0
            assert all(vec[c] == 0 for c in free if c != own)

    @given(int_matrices())
    @settings(max_examples=100, deadline=None)
    def test_gauss_jordan_det_of_square_blocks(self, matrix):
        ncols, rows = matrix
        square = [r[:len(rows)] for r in rows] if len(rows) <= ncols else []
        assert gauss_jordan_det(square) == det_perm(square)

    def test_nullspace_fixed_cases(self):
        assert _nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert _nullspace([[], []], 0) == []
        assert _nullspace([[0, 0], [0, 0]], 2) == [[1, 0], [0, 1]]
        # the first column is zero, so it is free; the rest has rank 1 and
        # its pivot 2 scales every vector
        assert _nullspace([[0, 2, 4], [0, 1, 2]], 3) == [[2, 0, 0], [0, -4, 2]]


class TestGeneralLinearPosition:
    def test_moment_curve_always_generic(self):
        pts = point_set([[t, t * t, t ** 3] for t in range(6)])
        assert is_general_linear_position(pts)

    def test_triangle_center(self):
        assert is_general_linear_position(TRIANGLE_CENTER)

    @staticmethod
    def assert_matches_oracle(ps, witness):
        assert violating_subset_oracle(ps) == witness
        assert is_general_linear_position(ps) == (witness is None)

    def test_collinear_triple_named(self):
        self.assert_matches_oracle(point_set([[0, 0], [1, 1], [2, 2], [5, 0]]), (0, 1, 2))

    def test_duplicate_point_detected(self):
        ps = point_set([[0, 0], [1, 2], [1, 2], [3, 1]])
        assert not is_general_linear_position(ps)

    def test_few_points_use_affine_independence(self):
        assert is_general_linear_position(point_set([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert not is_general_linear_position(point_set([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))

    def test_coplanar_quadruple_in_3d(self):
        ps = point_set([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 5]])
        self.assert_matches_oracle(ps, (0, 1, 2, 3))

    def test_dim1_duplicates(self):
        self.assert_matches_oracle(point_set([[3], [1], [4], [1], [5]]), (1, 3))
        self.assert_matches_oracle(point_set([[3], [1], [4], [5]]), None)

    def test_dependent_prefix(self):
        # points 0 and 1 coincide, so every triple through both is dependent
        self.assert_matches_oracle(point_set([[2, 1], [2, 1], [5, 7], [0, 3]]), (0, 1, 2))

    def test_rational_coordinates(self):
        # (1/2, 1/3), (3/2, 2/3), (5/2, 1) lie on one line; (1/3, 1/5) does not
        ps = point_set([["1/3", "1/5"], ["1/2", "1/3"], ["3/2", "2/3"], ["5/2", "1"]])
        self.assert_matches_oracle(ps, (1, 2, 3))
        self.assert_matches_oracle(point_set([["1/3", "1/5"], ["1/2", "1/3"],
                                              ["3/2", "2/3"], ["5/2", "2"]]), None)

    @given(grid_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, ps):
        assert is_general_linear_position(ps) == (violating_subset_oracle(ps) is None)


class TestSideCounts:
    """``plane_signs`` on the integer rows against Fraction substitution."""

    @staticmethod
    def signs(h, ps):
        signs = plane_signs(h, ps)
        values = [plane_value(h, pt) for pt in ps.points]
        assert signs == [(v > 0) - (v < 0) for v in values]
        return signs

    def test_triangle_center_split(self):
        h = canonical_plane((TRIANGLE_CENTER.points[3], TRIANGLE_CENTER.points[0]))
        assert sorted(self.signs(h, TRIANGLE_CENTER)) == [-1, 0, 0, 1]

    def test_all_on_one_side(self):
        h = Hyperplane((Fraction(0), Fraction(1)), Fraction(-1))
        assert self.signs(h, TRIANGLE_CENTER) == [1, 1, 1, 1]

    def test_flip_swaps_counts(self):
        h = canonical_plane((TRIANGLE_CENTER.points[0], TRIANGLE_CENTER.points[1]))
        flipped = self.signs(Hyperplane(tuple(-a for a in h.normal), -h.offset), TRIANGLE_CENTER)
        assert flipped == [-s for s in self.signs(h, TRIANGLE_CENTER)]


class TestPointSet:
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[FRACTIONS] * dim), min_size=1, max_size=5)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_points_read_back_from_the_rows(self, pool, data):
        # negative, zero, shared and distinct denominators, some points twice
        coords = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        assert point_set(coords).points == tuple(coords)
        assert point_set([[str(c) for c in pt] for pt in coords]).points == tuple(coords)

    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(
        st.tuples(*[st.integers(-9, 9)] * dim, st.integers(1, 9)), min_size=1, max_size=5)),
        st.integers(1, 6))
    def test_rows_equal_their_positive_multiples(self, rows, k):
        dim = len(rows[0]) - 1
        ps = PointSet(dim, rows)
        scaled = PointSet(dim, [[k * v for v in row] for row in rows])
        assert scaled == ps and hash(scaled) == hash(ps)
        assert scaled.rows == ps.rows and scaled.points == ps.points

    @pytest.mark.parametrize("weight", [0, -1, -2])
    def test_nonpositive_weight_rejected(self, weight):
        with pytest.raises(InputError, match=f"^point 1 has weight {weight}, expected > 0$"):
            PointSet(dim=2, rows=((1, 2, 1), (2, 4, weight)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"^point 0 has 1 coordinates, expected 2$"):
            PointSet(dim=2, rows=((1, 1),))

    def test_labels_length_checked(self):
        with pytest.raises(InputError):
            point_set([[0, 0]], labels=["a", "b"])

    def test_rank_int_full_and_deficient(self):
        assert rank_int([[1, 0], [0, 1]]) == 2
        assert rank_int([[1, 2], [2, 4]]) == 1
        assert rank_int([[0, 0], [0, 0]]) == 0


class TestRecords:
    def test_point_set_contract(self):
        assert_record(PointSet, {"dim": 2, "rows": ((0, 0, 1), (1, 2, 3)), "labels": ("a", "b")},
                      "PointSet(dim=2, rows=((0, 0, 1), (1, 2, 3)), labels=('a', 'b'))",
                      labels=("a", "c"))
        assert_record(PointSet, {"dim": 1, "rows": ((1, 1),), "labels": None},
                      "PointSet(dim=1, rows=((1, 1),), labels=None)", rows=((2, 1),))

    def test_point_set_labels_default_to_none(self):
        assert PointSet(1, ((1, 1),)) == PointSet(dim=1, rows=((1, 1),), labels=None)
        assert PointSet(1, ((1, 1),)).labels is None

    def test_point_set_reduces_each_row_by_its_gcd(self):
        ps = PointSet(2, [[2, 4, 6], [0, 0, 5], [-3, 9, 3], [1, 2, 3]])
        assert ps.rows == ((1, 2, 3), (0, 0, 1), (-1, 3, 1), (1, 2, 3))
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in ps.rows)
        assert ps == PointSet(2, ((1, 2, 3), (0, 0, 1), (-1, 3, 1), (1, 2, 3)))
        assert hash(ps) == hash(PointSet(2, ((1, 2, 3), (0, 0, 1), (-1, 3, 1), (1, 2, 3))))
        assert ps.points[0] == (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("dim,rows,labels,message", [
        (0, ((1,),), None, "dim must be >= 1, got 0"),
        (-2, (), None, "dim must be >= 1, got -2"),
        (2, ((1, 1),), None, "point 0 has 1 coordinates, expected 2"),
        (1, ((1, 1), (2, 0)), None, "point 1 has weight 0, expected > 0"),
        (1, ((1, 1), (2, 1)), ("a",), "labels must match points one to one"),
    ])
    def test_point_set_refusals(self, dim, rows, labels, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            PointSet(dim, rows, labels)

    def test_hyperplane_contract(self):
        assert_record(Hyperplane, {"normal": (1, -2), "offset": 3},
                      "Hyperplane(normal=(1, -2), offset=3)", offset=4)
        assert_record(Hyperplane, {"normal": (0, 0, 1), "offset": 0},
                      "Hyperplane(normal=(0, 0, 1), offset=0)", normal=(0, 1, 0))

    def test_hyperplane_keeps_its_coprime_positive_multiple(self):
        plane = Hyperplane((1, -2), 3)
        for form in (Hyperplane((4, -8), 12), Hyperplane(normal=[6, -12], offset=18),
                     Hyperplane((Fraction(1, 2), Fraction(-1)), Fraction(3, 2)),
                     Hyperplane((Fraction(1, 3), -Fraction(2, 3)), 1)):
            assert form == plane and hash(form) == hash(plane)
            assert form.normal == (1, -2) and form.offset == 3
            assert all(type(v) is int for v in (*form.normal, form.offset))
        # a negative multiple is the other orientation
        assert Hyperplane((-1, 2), -3) != plane
        assert Hyperplane((0, 6), 0).normal == (0, 1)

    @pytest.mark.parametrize("normal,offset", [((0, 0), 0), ((0, 0), 5), ((Fraction(0),), 1)])
    def test_hyperplane_needs_a_nonzero_normal(self, normal, offset):
        with pytest.raises(InputError, match="^hyperplane normal must be nonzero$"):
            Hyperplane(normal, offset)
