from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfacets.errors import InputError
from kfacets.simplex import Unbounded, maximize

F = Fraction


def reference_maximize(objective, rows):
    """Slow tableau simplex over Fractions; same contract as simplex.maximize.

    Kept deliberately naive and separate so it can arbitrate the fraction-free
    integer implementation.
    """
    nv = len(objective)
    m = len(rows)
    ncols = 2 * nv + m
    tab = []
    for i, (coeffs, rhs) in enumerate(rows):
        assert rhs >= 0
        row = [F(c) for c in coeffs] + [-F(c) for c in coeffs] + [F(0)] * m + [F(rhs)]
        row[2 * nv + i] = F(1)
        tab.append(row)
    z = [-F(c) for c in objective] + [F(c) for c in objective] + [F(0)] * (m + 1)
    basis = [2 * nv + i for i in range(m)]
    while True:
        entering = next((j for j in range(ncols) if z[j] < 0), None)
        if entering is None:
            break
        leave, best = -1, None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][ncols] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            raise Unbounded("reference: unbounded")
        piv = tab[leave][entering]
        tab[leave] = [c / piv for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][entering]:
                f = tab[i][entering]
                tab[i] = [c - f * p for c, p in zip(tab[i], tab[leave])]
        if z[entering]:
            f = z[entering]
            z = [c - f * p for c, p in zip(z, tab[leave])]
        basis[leave] = entering
    values = [F(0)] * ncols
    for i in range(m):
        values[basis[i]] = tab[i][ncols]
    return z[ncols], [values[j] - values[nv + j] for j in range(nv)]


def pivot_of(answer, expected):
    """The positive integer D with maximize's integer answer (value, x)
    equal to the exact expected (optimum, point) times D, asserted to exist;
    1 when both are all zero."""
    got = [answer[0], *answer[1]]
    want = [F(v) for v in (expected[0], *expected[1])]
    assert all(type(v) is int for v in got)
    assert all(v == 0 for v, w in zip(got, want) if not w)
    ratios = {v / w for v, w in zip(got, want) if w}
    assert len(ratios) <= 1
    d = ratios.pop() if ratios else F(1)
    assert d > 0 and d.denominator == 1
    return d.numerator


def check_feasible(objective, rows, answer, d):
    """coeffs.x <= rhs D for every integer row, and objective.x == value,
    exactly in integers."""
    value, x = answer
    for coeffs, rhs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) <= rhs * d
    assert sum(c * v for c, v in zip(objective, x)) == value


def solve(objective, rows):
    """maximize's answer on an integer LP, checked feasible, with its
    final pivot D read against the reference."""
    answer = maximize(objective, rows)
    d = pivot_of(answer, reference_maximize(objective, rows))
    check_feasible(objective, rows, answer, d)
    return answer, d


class TestMaximize:
    def test_single_bound(self):
        # one pivot on 1: D = 1
        assert maximize([1], [([1], 1)]) == (1, [1])

    def test_negative_direction(self):
        # x enters as x- and pivots on 1
        assert maximize([-1], [([-1], 2)]) == (2, [-2])

    def test_answer_is_times_the_final_pivot(self):
        # max x s.t. 3x <= 2: one pivot on 3, so the optimum 2/3 at x = 2/3
        # comes back as (2, [2])
        assert maximize([1], [([3], 2)]) == (2, [2])
        assert maximize([2], [([3], 2), ([5], 7)]) == (4, [2])

    def test_two_variable_corner(self):
        rows = [([1, 1], 4), ([1, 0], 2), ([0, 1], 3)]
        (value, x), d = solve([2, 1], rows)
        assert (value, x) == (6 * d, [2 * d, 2 * d])

    def test_rational_data(self):
        # the rows of x/3 + y/2 <= 1, x - y <= 0, each scaled to integers
        rows = int_rows([([F(1, 3), F(1, 2)], F(1)), ([F(1), F(-1)], F(0))])
        assert rows == [([2, 3], 6), ([1, -1], 0)]
        (value, x), d = solve([1, 1], rows)
        assert F(value, d) == F(12, 5) and [F(v, d) for v in x] == [F(6, 5)] * 2

    def test_degenerate_origin_rows_terminate(self):
        # every rhs zero except a box: heavy degeneracy, Bland must still exit
        rows = [([1, -1], 0), ([-1, 1], 0), ([1, 1], 0), ([1, 0], 1), ([-1, 0], 1)]
        (value, x), d = solve([0, 1], rows)
        assert value == 0

    def test_ratio_ties_break_by_lowest_basic_label(self):
        # x[1] has cost 0 and the optimum does not fix it: x[1] = -8/3 is
        # optimal too, and a ratio tie broken the other way ends there
        # (the rows are scaled to integers, which leaves every pivot as it is)
        rows = int_rows([([F(3, 4), F(5, 4), F(4, 3)], F(0)), ([F(0), F(-1, 2), F(-4)], F(1)),
                         ([F(4, 3), F(2), F(2)], F(3)), ([F(4), F(-4), F(1, 3)], F(0)),
                         ([F(-2), F(-1), F(-3)], F(1)),
                         ([1, 0, 0], 1), ([-1, 0, 0], 3), ([0, 1, 0], 1), ([0, -1, 0], 4),
                         ([0, 0, 1], 4), ([0, 0, -1], 3)])
        objective = [-1, 0, 2]
        assert reference_maximize(objective, rows) == (11, [-3, F(-37, 15), 4])
        (value, x), d = solve(objective, rows)
        assert (value, x) == (11 * d, [-3 * d, F(-37 * d, 15), 4 * d])

    def test_unbounded_detected(self):
        with pytest.raises(Unbounded):
            maximize([1], [([-1], 1)])

    def test_negative_rhs_rejected(self):
        with pytest.raises(InputError):
            maximize([1], [([1], -1)])


def rationals(draw, lo, hi):
    return F(draw(st.integers(lo, hi)), draw(st.integers(1, 4)))


@st.composite
def origin_feasible_lp(draw):
    nv = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = [rationals(draw, -4, 4) for _ in range(nv)]
        rows.append((coeffs, rationals(draw, 0, 5)))
    # box rows keep every instance bounded
    for j in range(nv):
        e = [F(0)] * nv
        e[j] = F(1)
        rows.append((list(e), rationals(draw, 1, 6)))
        rows.append(([-c for c in e], rationals(draw, 1, 6)))
    objective = [F(draw(st.integers(-3, 3))) for _ in range(nv)]
    return objective, rows


def int_rows(rows):
    """Each row times the lcm of its denominators, as plain ints."""
    scaled = []
    for coeffs, rhs in rows:
        mult = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        scaled.append(([int(c * mult) for c in coeffs], int(rhs * mult)))
    return scaled


class TestAgainstReference:
    @given(origin_feasible_lp())
    @settings(max_examples=120, deadline=None)
    def test_same_optimum_and_feasible_witness(self, lp):
        objective, rows = lp
        objective, scaled = [int(c) for c in objective], int_rows(rows)
        answer = maximize(objective, scaled)
        # pivot for pivot: the same optimal vertex, not only the same
        # optimum, as the reference finds on the rational rows
        d = pivot_of(answer, reference_maximize(objective, rows))
        check_feasible(objective, scaled, answer, d)


@st.composite
def weak_face_lp(draw):
    """An LP shaped like the weak face LP (``facelab._lp_face``): variables
    (a, b), one rhs-0 row a.X - b D <= 0 per homogeneous integer point
    (X, D), an equality pair (the row and its negation) for each point on
    the face, those first, then the box rows of every variable last.  Most
    rows have rhs 0 and points repeat, so pivots are degenerate and ratio
    tests tie.  Some rows come times a positive factor, which poses the same
    LP."""
    nv = draw(st.integers(1, 5))
    coord = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[coord] * (nv - 1), st.integers(1, 2)),
                         min_size=3, max_size=6))
    points = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=14 - nv))
    on = draw(st.integers(1, min(3, len(points))))
    rows = []
    for j, (*xs, den) in enumerate(points):
        row = [*xs, -den]
        rows.append((row, 0))
        if j < on:
            rows.append(([-c for c in row], 0))
    for l in range(nv):
        e = [int(j == l) for j in range(nv)]
        bound = draw(st.integers(1, 2))
        rows += [(e, bound), ([-c for c in e], bound)]
    rows = [([c * q for c in coeffs], rhs * q) for coeffs, rhs in rows
            for q in [draw(st.integers(1, 3))]]
    # mostly +-e_l as in the weak face LP: the other variables cost 0, so
    # the optimum is seldom a single vertex and ties decide which one
    axis, sigma = draw(st.integers(0, nv - 1)), draw(st.sampled_from([1, -1]))
    objective = draw(st.one_of(
        st.just([sigma * (j == axis) for j in range(nv)]),
        st.lists(st.integers(-2, 2), min_size=nv, max_size=nv)))
    return objective, rows


class TestWeakFaceShapedLPs:
    # a ratio tie decides the returned vertex in only a few percent of these
    # LPs, so the test draws enough of them to meet some
    @given(weak_face_lp())
    @settings(max_examples=400, deadline=None)
    def test_same_vertex_as_reference(self, lp):
        solve(*lp)

    def test_no_rows_rejected(self):
        with pytest.raises(InputError, match="at least one constraint row"):
            maximize([1, 0], [])

    @pytest.mark.parametrize("coeffs", [[1], [1, 0, 0], []])
    def test_wrong_row_width_rejected(self, coeffs):
        with pytest.raises(InputError, match="width"):
            maximize([1, 0], [([1, 0], 1), (coeffs, 1)])

    def test_int_rows_mixed_with_fraction_rows(self):
        # the rows, written as a mix of int and Fraction rows, scaled to
        # integers; x[0] has cost 0 and is not fixed by the optimum: a ratio
        # tie broken toward the higher basic label ends at x[0] = 0
        rows = int_rows([([1, F(1, 2), F(1, 2)], F(1, 2)), ([-1, 0, -1], 0), ([1, 0, 0], 1),
                         ([F(-1, 3), 0, 0], F(1, 3)), ([0, F(1, 2), 0], F(1, 2)),
                         ([0, F(-1, 2), 0], F(1, 2)), ([0, 0, 1], 1), ([0, 0, -1], 1)])
        assert reference_maximize([0, -1, 1], rows) == (2, [F(1, 2), -1, 1])
        (value, x), d = solve([0, -1, 1], rows)
        assert (value, x) == (2 * d, [F(d, 2), -d, d])
