import random
from fractions import Fraction as F
from functools import cache, partial
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_splits_oracle, assert_record, canonical_plane, det_perm, k_sets_oracle, plane_signs,
                      plane_value, profile_oracle, rank_oracle, violating_subset_oracle)
from kfacets import facelab, facets, genpos, geometry
from kfacets.errors import DegeneracyError, InputError
from kfacets.facets import (
    KFacetProfile,
    KSetFamily,
    OrientedFacet,
    _separable,
    enumerate_k_facets,
    enumerate_k_sets,
    k_facet_profile,
    k_set_counts,
)
from kfacets.genpos import convex_position_set, map_generic_set, random_point_set
from kfacets.geometry import (PointSet, _affine_chart, _packed_walk, _packing,
                              is_general_linear_position, point_set)
from kfacets.liftmaps import circle_map, homogeneous_veronese, veronese
from kfacets.projection import census

SQUARE = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])


@st.composite
def grid_sets(draw):
    """4 to 9 points of the 3-, 3x3 or 3x3x3 grid, some drawn again as repeats."""
    dim = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(4, 9))
    repeats = draw(st.integers(0, 2))
    cell = st.tuples(*[st.integers(0, 2)] * dim)
    pts = draw(st.lists(cell, min_size=n - repeats, max_size=n - repeats))
    pts += [pts[draw(st.integers(0, len(pts) - 1))] for _ in range(repeats)]
    return point_set(pts)


@st.composite
def flat_sets(draw):
    """2 to 8 points in dim 1 to 4 whose affine hull has rank below dim:
    grid combinations of up to dim - 1 integer directions from one origin,
    so rank 0 gives all points identical."""
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(0, dim - 1))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)
    origin = draw(vec)
    dirs = draw(st.lists(vec, min_size=rank, max_size=rank))
    combos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rank), min_size=2, max_size=8))
    return point_set([[o + sum(c * v[axis] for c, v in zip(cs, dirs))
                       for axis, o in enumerate(origin)] for cs in combos])


@st.composite
def walk_sets(draw, dim):
    """Sets in dim of four kinds: GLP, small grid, flat (hull of lower
    dimension) and GLP with one point drawn again."""
    kind = draw(st.sampled_from(("glp", "grid", "flat", "repeated")))
    if kind == "grid":
        cell = st.tuples(*[st.integers(-1, 1)] * dim)
        return point_set(draw(st.lists(cell, min_size=1, max_size=8)))
    if kind == "flat":
        rank = draw(st.integers(0, dim - 1))
        dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                             min_size=rank, max_size=rank))
        coefs = st.tuples(*[st.integers(-2, 2)] * rank)
        return point_set([[sum(c * v[axis] for c, v in zip(cs, dirs)) for axis in range(dim)]
                          for cs in draw(st.lists(coefs, min_size=1, max_size=8))])
    pts = list(random_point_set(draw(st.integers(1, dim + 4)), dim,
                                seed=draw(st.integers(0, 99))).points)
    if kind == "repeated":
        pts.insert(draw(st.integers(0, len(pts))), pts[draw(st.integers(0, len(pts) - 1))])
    return point_set(pts)


def _first_failure(ps):
    """(s, subset) for the first p-subset s in lexicographic order that the
    sweep must reject, by brute force: s itself if it is affinely dependent
    (zero Gram determinant), else s with the last other point on its
    hyperplane; None if there is none."""
    for s in combinations(range(ps.n), ps.dim):
        base = ps.points[s[0]]
        rows = [[x - b for x, b in zip(ps.points[i], base)] for i in s[1:]]
        if det_perm([[sum(a * b for a, b in zip(r, q)) for q in rows] for r in rows]) == 0:
            return s, s
        on = [j for j in range(ps.n) if j not in s and det_perm(
            rows + [[x - b for x, b in zip(ps.points[j], base)]]) == 0]
        if on:
            return s, tuple(sorted(s + (on[-1],)))
    return None


def _canonical_splits(ps):
    """_splits_oracle's stream with each split oriented as its subset's
    ``canonical_plane``: the count of points above that plane first."""
    out = []
    try:
        for s, pos, neg in _splits_oracle(ps):
            plane = canonical_plane([ps.points[i] for i in s])
            above = sum(plane_value(plane, x) > 0 for x in ps.points)
            out.append((s, above, pos + neg - above))
    except ValueError:
        pass
    return out


def _no_lp(*args, **kwargs):
    raise AssertionError("LP solved")


def _check_k_sets_without_lp(ps):
    # the oracle solves LPs, so it runs before the solver is patched out
    oracle = [k_sets_oracle(ps, k) for k in range(1, ps.n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(facelab, "maximize", _no_lp)
        assert k_set_counts(ps) == tuple(map(len, oracle))
        assert [enumerate_k_sets(ps, k).sets for k in range(1, ps.n)] == oracle


def _convex_quadrilaterals(ps):
    """The 4-subsets of a planar set in general position that are in convex
    position, by orientation signs: none of the four lies in the triangle of
    the other three."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0

    def inside(a, b, c, x):
        return orient(a, b, x) == orient(b, c, x) == orient(c, a, x)

    return sum(not any(inside(*(q[:i] + q[i + 1:]), q[i]) for i in range(4))
               for q in combinations(ps.points, 4))


class TestProfile:
    def test_square_profile(self):
        prof = k_facet_profile(SQUARE)
        # 6 spanning pairs, each oriented twice; diagonals contribute (1,1)
        assert prof.n == 4 and prof.p == 2
        assert prof.e == (4, 4, 4)
        assert prof.halving_level() == 1
        assert prof.unoriented_halving() == 2

    def test_triangle_with_center(self):
        prof = k_facet_profile(point_set([(0, 0), (3, 0), (0, 3), (1, 1)]))
        assert sum(prof.e) == 2 * comb(4, 2)

    def test_pentagon_profile(self):
        # convex position: edges give (0, 3) splits, diagonals (1, 2)
        ps = point_set([(0, 2), (2, 1), (1, -2), (-1, -2), (-2, 1)])
        prof = k_facet_profile(ps)
        assert prof.e == (5, 5, 5, 5)

    def test_halving_parity_guard(self):
        ps = random_point_set(5, 2, seed=3)
        with pytest.raises(InputError):
            k_facet_profile(ps).halving_level()

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_in_plane(self, seed):
        ps = random_point_set(6, 2, seed=seed)
        prof = k_facet_profile(ps)
        assert prof.e == profile_oracle(ps)

    @given(st.integers(0, 400))
    @settings(max_examples=10, deadline=None)
    def test_matches_oracle_in_space(self, seed):
        ps = random_point_set(6, 3, seed=seed)
        assert k_facet_profile(ps).e == profile_oracle(ps)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_symmetry_and_total(self, seed):
        ps = random_point_set(7, 2, seed=seed)
        e = k_facet_profile(ps).e
        assert e == e[::-1]
        assert sum(e) == 2 * comb(7, 2)

    @pytest.mark.parametrize("lift,n,d", [
        *((None, n, d) for d in range(1, 6) for n in range(d + 2, d + 8)),
        *(("circle", n, 2) for n in (6, 9, 11)),
        *(("conic", n, 2) for n in (8, 10)),
    ])
    def test_radon_identity(self, lift, n, d):
        # a plane through d points of a (d + 2)-subset Q has the other two on
        # one side iff their Radon coefficients have opposite signs, so the
        # pairs on one side of a plane, counted per plane and per Q, agree
        if lift is None:
            ps = random_point_set(n, d, seed=n)
        else:
            mmap = circle_map() if lift == "circle" else veronese(2, 2)
            ps = mmap.apply(map_generic_set(n, mmap, seed=1))
        e = k_facet_profile(ps).e
        parts = [facelab.radon_partition(PointSet(ps.dim, tuple(ps.rows[i] for i in q)))
                 for q in combinations(range(ps.n), ps.dim + 2)]
        assert sum(comb(k, 2) * count for k, count in enumerate(e)) \
            == sum(len(w.part_q) * len(w.part_r) for w in parts)

    @pytest.mark.parametrize("n", range(5, 14))
    def test_crossing_identity(self, n):
        # the convex quadrilaterals from the (<= k)-edge counts
        # E_(<=k) = e_0 + .. + e_k (Lovasz, Vesztergombi, Wagner and Welzl
        # 2004; Abrego and Fernandez-Merchant 2005); in convex position every
        # 4-subset is one
        for seed in range(4):
            for build in (random_point_set, convex_position_set):
                ps = build(n, 2, seed)
                e = k_facet_profile(ps).e
                quads = (sum((n - 2 * k - 3) * sum(e[:k + 1]) for k in range(n) if 2 * k < n - 2)
                         - F(3, 4) * comb(n, 3) + F(1 + (-1) ** (n + 1), 8) * comb(n, 2))
                assert _convex_quadrilaterals(ps) == quads, (build.__name__, seed)
                if build is convex_position_set:
                    assert quads == comb(n, 4)

    def test_degenerate_subset_named(self):
        ps = point_set([(0, 0), (1, 0), (2, 0), (1, 2)])
        with pytest.raises(DegeneracyError) as exc:
            k_facet_profile(ps)
        assert exc.value.subset == (0, 1, 2)

    def test_coplanar_extra_point_named(self):
        # 0,1,2 span z = 0 and 3 lies on it
        ps = point_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 5)])
        with pytest.raises(DegeneracyError) as exc:
            k_facet_profile(ps)
        assert set(exc.value.subset) == {0, 1, 2, 3}


def _unpack(packed, count, width):
    """The count balanced base-2^width digits of packed, lowest first; no
    digit may be left above them."""
    digits = []
    for _ in range(count):
        v = packed % (1 << width)
        v -= (v >= 1 << width - 1) << width
        digits.append(v)
        packed = (packed - v) >> width
    assert packed == 0
    return digits


def _walk_values(ys):
    """(s, values) of ``_packed_walk`` over every p-subset s of the rows ys,
    its leaves unpacked at the width the rows ask for."""
    width, top, low = _packing(ys, len(ys))
    return [(s, packed if packed is None else _unpack(packed, len(ys), width))
            for s, packed, _, _ in _packed_walk(ys, len(ys), width, top, low)]


class TestPrefixWalk:
    """The sweep and the GLP check share ``geometry._packed_walk``;
    dim 1 has an empty prefix and dim 2 a one-point prefix."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_oracle(self, dim, data):
        # every reader of the sweep: the profile, the oriented k-facets for
        # every k and the census, or one DegeneracyError naming the same subset
        ps = data.draw(walk_sets(dim))
        if ps.n < dim:
            return
        failure = _first_failure(ps)
        readers = [k_facet_profile, census] + [partial(enumerate_k_facets, k=k)
                                               for k in range(ps.n - dim + 1)]
        if failure:
            for read in readers:
                with pytest.raises(DegeneracyError) as exc:
                    read(ps)
                assert exc.value.subset == failure[1]
            return
        splits = _canonical_splits(ps)
        assert len(splits) == comb(ps.n, dim)
        e = [0] * (ps.n - dim + 1)
        table = [[0] * (ps.n - dim + 1) for _ in range(ps.n)]
        for s, above, below in splits:
            for row in [e] + [table[v] for v in s]:
                row[above] += 1
                row[below] += 1
        profile = KFacetProfile(ps.n, dim, tuple(e))
        assert k_facet_profile(ps) == profile
        assert census(ps)[:2] == (profile, tuple(map(tuple, table)))
        for k in range(ps.n - dim + 1):
            assert enumerate_k_facets(ps, k) == (profile, [
                OrientedFacet(s, sign, k) for s, above, below in splits
                for sign, count in ((1, above), (-1, below)) if count == k])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sides_match_plane_up_to_sign(self, dim, data):
        ps = data.draw(walk_sets(dim))
        walked = _walk_values(ps.rows)
        assert [s for s, _ in walked] == list(combinations(range(ps.n), dim))
        for s, sides in walked:
            assert (sides is None) == (rank_oracle([(*ps.points[i], 1) for i in s]) < dim)
            if sides is not None:
                signs = [(v > 0) - (v < 0) for v in sides]
                plane = plane_signs(canonical_plane([ps.points[i] for i in s]), ps)
                assert signs in (plane, [-v for v in plane])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_oracle(self, dim, data):
        ps = data.draw(walk_sets(dim))
        assert is_general_linear_position(ps) == (violating_subset_oracle(ps) is None)


def _hadamard(order):
    """The rows of Sylvester's normalised +-1 Hadamard matrix of the order,
    a power of 2, as homogeneous rows: the all-ones column is the weight."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return tuple(tuple(row[1:] + row[:1]) for row in h)


class TestFieldWidth:
    """Every leaf value of the packed walk, unpacked, is the determinant of
    the rows s + (j,) up to one sign per s: a field that overflowed its
    width would break that exactly, not pass silently."""

    @staticmethod
    def assert_leaves_are_minors(ys):
        @cache
        def det(rows):
            return det_perm([ys[i] for i in rows])

        def minor(idx):
            # the det of the sorted rows, signed by the permutation
            if len(set(idx)) < len(idx):
                return 0
            inversions = sum(a > b for a, b in combinations(idx, 2))
            return (-1) ** inversions * det(tuple(sorted(idx)))

        n, p = len(ys), len(ys[0]) - 1
        walked = _walk_values(ys)
        assert [s for s, _ in walked] == list(combinations(range(n), p))
        for s, values in walked:
            minors = [minor(s + (j,)) for j in range(n)]
            if values is None:
                assert not any(minors)
            else:
                assert values in (minors, [-m for m in minors]), s
        return walked

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_huge_coordinates_of_both_signs(self, dim):
        rng = random.Random(dim)
        ps = point_set([[rng.randint(-2 ** 200, 2 ** 200) for _ in range(dim)]
                        for _ in range(dim + 3)])
        self.assert_leaves_are_minors(ps.rows)
        self.assert_leaves_are_minors(ps.rows + _axis_rows(dim))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_one_huge_column(self, dim):
        # the column bound is 2^200 times small factors, not 2^(200 (dim + 1))
        rng = random.Random(20 + dim)
        huge = rng.randrange(dim)
        ps = point_set([[rng.choice((-1, 1)) * (2 ** 200 - rng.randint(0, 3)) if a == huge
                         else rng.randint(-3, 3) for a in range(dim)] for _ in range(dim + 3)])
        for ys in (ps.rows, ps.rows + _axis_rows(dim)):
            walked = self.assert_leaves_are_minors(ys)
            assert max(abs(v) for _, values in walked if values for v in values) >= 2 ** 199

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_all_zero_column(self, dim):
        # the zero column counts as 1: every leaf is 0 or None, but the
        # pivots and the pair level's dependence test read minors of the
        # other columns, which two repeated points make vanish
        rng = random.Random(30 + dim)
        zero = rng.randrange(dim)
        ps = point_set([[0 if a == zero else rng.randint(-2 ** 40, 2 ** 40) for a in range(dim)]
                        for _ in range(dim + 3)])
        ps = PointSet(dim, ps.rows + ps.rows[:2])
        for s, values in self.assert_leaves_are_minors(ps.rows):
            assert (values is None) == (rank_oracle([ps.rows[i] for i in s]) < dim), s
        self.assert_leaves_are_minors(ps.rows + _axis_rows(dim))

    @pytest.mark.parametrize("mmap, n", [(veronese(2, 2), 8), (circle_map(), 9),
                                         (homogeneous_veronese(2, 4), 8)],
                             ids=["conic", "circle", "hveronese"])
    def test_lifts(self, mmap, n):
        self.assert_leaves_are_minors(mmap.apply(map_generic_set(n, mmap, seed=0)).rows)

    @pytest.mark.parametrize("mmap, n, bits", [(veronese(2, 2), 14, 56), (circle_map(), 17, 32)],
                             ids=["conic", "circle"])
    def test_lift_fields_fit_their_columns(self, mmap, n, bits):
        # the row form of Hadamard's bound gives 72 and 56 bits here: x^2
        # beside x and the weight 1 inflate every row norm, but only their
        # own column's largest entry
        lift = mmap.apply(map_generic_set(n, mmap, seed=0))
        assert _packing(lift.rows, lift.n)[0] <= bits

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_large_denominators(self, dim):
        rng = random.Random(10 + dim)
        ps = point_set([[F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
                         for _ in range(dim)] for _ in range(dim + 3)])
        assert max(row[-1] for row in ps.rows) > 10 ** 8
        self.assert_leaves_are_minors(ps.rows)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_repeated_points(self, dim):
        rows = random_point_set(dim + 2, dim, seed=dim).rows
        walked = self.assert_leaves_are_minors(rows + rows[:2])
        assert any(values is None for _, values in walked) or dim == 1

    @pytest.mark.parametrize("order", [4, 8])
    def test_hadamard_rows_reach_the_bound(self, order):
        ps = PointSet(order - 1, _hadamard(order))
        walked = self.assert_leaves_are_minors(ps.rows)
        # |det| equals Hadamard's bound: order^(order / 2) = isqrt of the
        # product of the squared row norms, all order
        assert {abs(v) for _, values in walked for v in values} == {0, order ** (order // 2)}


def _axis_rows(dim):
    """The axis directions (e_i, 0) the oriented sweep appends, last axis first."""
    return tuple(tuple(int(a == b) for b in range(dim + 1)) for a in reversed(range(dim)))


def _unit(dim, *axes):
    return tuple(int(a in axes) for a in range(dim))


def _pivots_taken(monkeypatch):
    """(rows left, pivot) of each pivot ``geometry._pivot`` takes from now on."""
    taken, pivot = [], geometry._pivot

    def counted(rows, *rest):
        step = pivot(rows, *rest)
        if step is not None:
            taken.append((len(step[0]), step[1]))
        return step

    monkeypatch.setattr(geometry, "_pivot", counted)
    return taken


class TestPivotSizes:
    """The packed walk pivots on the weight row first: every depth-1 pivot of
    an integer point set is its weight 1, and a depth-d pivot is a minor of
    the weight and d - 1 coordinates, so the leaves of a conic lift, which
    divide by the square of the pivot P taken with three rows left, divide
    by one 30-bit digit."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_depth_one_pivots_are_one(self, monkeypatch, dim):
        taken = _pivots_taken(monkeypatch)
        for seed in range(3):
            ps = random_point_set(dim + 4, dim, seed)
            taken.clear()
            k_facet_profile(ps)
            # one depth-1 pivot per first point i <= n - dim; none in dim 2,
            # whose pair level starts at the empty prefix
            assert [piv for left, piv in taken if left == dim] == \
                ([1] * 5 if dim > 2 else [])

    @pytest.mark.parametrize("seed", range(5))
    def test_conic_leaf_divisors_fit_one_digit(self, monkeypatch, seed):
        taken = _pivots_taken(monkeypatch)
        genpos._draw_lift(14, veronese(2, 2), seed, facets.k_facet_profile)
        leaf = [piv for left, piv in taken if left == 3]
        assert leaf and all(piv * piv < 2 ** 30 for piv in leaf)


class TestPairLevel:
    """The walk's last two points i < l come from the (dim - 2)-prefix at
    once; their leaf is None iff y_i is dependent on the prefix or y_l on
    the prefix and y_i, and 0 when an independent s spans a plane that
    holds every point.  In each set below s = range(dim) is that case; an
    affine map with det 2^dim moves the points off the unit pivots, so the
    division by the squared pivot is not by 1 (except in dim 2, whose
    prefix is empty: there only y_l can repeat y_i)."""

    CASES = {
        (2, "l"): [(1, 0), (1, 0), (0, 0), (0, 1)],
        (2, "flat"): [(0, 0), (1, 1), (2, 2), (5, 5)],
        (3, "i"): [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        (3, "l"): [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],
        (3, "flat"): [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 0), (3, 1, 0)],
        (5, "i"): [_unit(5), _unit(5, 0), _unit(5, 1), _unit(5, 0, 1), _unit(5, 2),
                   _unit(5, 3), _unit(5, 4)],
        (5, "l"): [_unit(5), _unit(5, 0), _unit(5, 1), _unit(5, 2), _unit(5, 0, 2),
                   _unit(5, 3), _unit(5, 4)],
        (5, "flat"): [(*pt, 0) for pt in random_point_set(7, 4, seed=1).points],
    }

    @pytest.mark.parametrize("dim, case", list(CASES))
    def test_degenerate_pairs(self, dim, case):
        shift = (3, 5, 7, 11, 13)
        ps = point_set([[2 * x + sum(pt[:a]) + shift[a] for a, x in enumerate(pt)]
                        for pt in self.CASES[dim, case]])
        s = tuple(range(dim))
        walked = TestFieldWidth.assert_leaves_are_minors(ps.rows)
        for t, values in walked:
            assert (values is None) == (rank_oracle([(*ps.points[i], 1) for i in t]) < dim), t
        values = dict(walked)[s]
        if case == "flat":
            assert values == [0] * ps.n
            failure = (s, s + (ps.n - 1,))
        else:
            assert values is None
            failure = (s, s)
        assert _first_failure(ps) == failure
        message = (f"not in general linear position: points {failure[1]} lie on one hyperplane"
                   if case == "flat" else
                   f"degenerate facet candidate: points {s} are affinely dependent")
        for read in (k_facet_profile, census, partial(enumerate_k_facets, k=0)):
            with pytest.raises(DegeneracyError) as exc:
                read(ps)
            assert (exc.value.subset, str(exc.value)) == (failure[1], message)
        assert is_general_linear_position(ps) == (violating_subset_oracle(ps) is None)


def _tally(ps):
    """a[k] for k = 1 .. n - 1, tallied from the masks of ``_separable``."""
    a = [0] * (ps.n + 1)
    for s in _separable(ps.rows, tuple(range(ps.n)), {}):
        a[s.bit_count()] += 1
    return tuple(a[1:-1])


def _no_separable(*args, **kwargs):
    raise AssertionError("mask set built")


def _check_counts(ps):
    # a DegeneracyError escaping k_set_counts fails here too
    counts = k_set_counts(ps)
    assert counts == _tally(ps) == tuple(len(k_sets_oracle(ps, k)) for k in range(1, ps.n))


def _with_repeat(ps):
    return point_set(ps.points + ps.points[:1])


def _with_flat(ps):
    # 2 (x_1 + .. + x_(p-1)) - (2p - 3) x_0, in the affine hull of the first
    # p points: on the line of two of them in R^2, the plane of three in R^3
    base, *others = ps.points[:ps.dim]
    return point_set(ps.points + (tuple(2 * sum(c) - (2 * len(others) - 1) * b
                                        for b, *c in zip(base, *others)),))


class TestKSetsFromFacets:
    """The k-set recursion (``_separable``) against the k-facet sweep: in
    the plane a_k = e_(k-1), in space a_k = (e_(k-1) + e_(k-2)) / 2 + 2, for
    a set in general position (Andrzejak, Aronov, Har-Peled, Seidel and
    Welzl, SoCG 1998), with e_j = 0 outside 0..n-p.  ``k_set_counts`` reads
    these identities, so the recursion is tallied on its own here."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim, sizes", [(2, range(3, 12)), (3, range(4, 11))])
    def test_k_sets_from_k_facets(self, dim, sizes, seed):
        for n in sizes:
            ps = random_point_set(n, dim, seed)
            e = k_facet_profile(ps).e

            def at(j):
                return e[j] if 0 <= j < len(e) else 0

            expected = [at(k - 1) if dim == 2 else F(at(k - 1) + at(k - 2), 2) + 2
                        for k in range(1, n)]
            assert list(_tally(ps)) == expected, n

    @given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_the_recursion_in_general_position(self, dim, extra, seed):
        ps = random_point_set(dim + extra, dim, seed)
        assert k_set_counts(ps) == _tally(ps)

    @given(st.integers(3, 12), st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_counts_match_the_recursion_on_circle_lifts(self, n, seed):
        lifted = circle_map().apply(map_generic_set(n, circle_map(), seed))
        assert k_set_counts(lifted) == _tally(lifted)

    @pytest.mark.parametrize("seed", range(3))
    def test_general_position_builds_no_mask_set(self, seed):
        sets = [random_point_set(9, 2, seed), random_point_set(9, 3, seed),
                circle_map().apply(map_generic_set(9, circle_map(), seed))]
        expected = [_tally(ps) for ps in sets]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(facets, "_separable", _no_separable)
            assert [k_set_counts(ps) for ps in sets] == expected

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("spoil, dim", [(_with_repeat, 1), (_with_repeat, 2), (_with_repeat, 3),
                                            (_with_flat, 2), (_with_flat, 3)])
    def test_degenerate_sets_fall_back(self, spoil, dim, seed):
        # the profile raises, and the counts come from the tally
        ps = spoil(random_point_set(dim + 4, dim, seed))
        with pytest.raises(DegeneracyError):
            k_facet_profile(ps)
        _check_counts(ps)

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_no_more_points_than_dim(self, dim):
        for n in range(1, dim + 1):
            _check_counts(random_point_set(n, dim, 0))
        assert k_set_counts(random_point_set(1, 3, 0)) == ()
        assert k_set_counts(random_point_set(2, 3, 0)) == (2,)


class TestEnumerateFacets:
    def test_square_halving_edges(self):
        facets = enumerate_k_facets(SQUARE, 1)[1]
        assert len(facets) == 4
        assert {f.indices for f in facets} == {(0, 2), (1, 3)}
        for f in facets:
            assert f.k == 1 and f.sign in (-1, 1)

    def test_square_signs(self):
        # the horizontal edges have normal (0, 1): the sign falls through
        # to the second axis
        assert [[(f.indices, f.sign) for f in enumerate_k_facets(SQUARE, k)[1]]
                for k in range(3)] == [
            [((0, 1), -1), ((0, 3), -1), ((1, 2), 1), ((2, 3), 1)],
            [((0, 2), 1), ((0, 2), -1), ((1, 3), 1), ((1, 3), -1)],
            [((0, 1), 1), ((0, 3), 1), ((1, 2), -1), ((2, 3), -1)],
        ]

    def test_signs_in_space(self):
        # the facet (0, 1, 2) lies on z = 0, normal (0, 0, 1)
        ps = point_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert [[(f.indices, f.sign) for f in enumerate_k_facets(ps, k)[1]]
                for k in range(3)] == [
            [((0, 1, 2), -1), ((0, 1, 3), -1), ((0, 2, 3), -1), ((1, 2, 4), 1),
             ((1, 3, 4), 1), ((2, 3, 4), -1)],
            [((0, 1, 4), 1), ((0, 1, 4), -1), ((0, 2, 4), 1), ((0, 2, 4), -1),
             ((0, 3, 4), 1), ((0, 3, 4), -1), ((1, 2, 3), 1), ((1, 2, 3), -1)],
            [((0, 1, 2), 1), ((0, 1, 3), 1), ((0, 2, 3), 1), ((1, 2, 4), -1),
             ((1, 3, 4), -1), ((2, 3, 4), 1)],
        ]

    def test_hull_edges_at_level_zero(self):
        facets = enumerate_k_facets(SQUARE, 0)[1]
        assert {f.indices for f in facets} == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_counts_agree_with_profile(self):
        ps = random_point_set(7, 3, seed=5)
        prof = k_facet_profile(ps)
        for k, ek in enumerate(prof.e):
            profile, listed = enumerate_k_facets(ps, k)
            assert profile == prof and len(listed) == ek


def _grid_sample(seed, side, dim, distinct, repeats):
    """distinct points of the side^dim grid, then repeats of them drawn again."""
    rng = random.Random(seed)
    pts = rng.sample(list(product(range(side), repeat=dim)), distinct)
    return point_set(pts + rng.choices(pts, k=repeats))


def _line_sample(seed, direction, n=8):
    """n points, some repeated, on a line through (1, -1, ..) along direction."""
    rng = random.Random(seed)
    return point_set([[(-1) ** a + t * v for a, v in enumerate(direction)]
                      for t in (rng.randrange(-4, 5) for _ in range(n))])


def _charts_walked(ps):
    """(walked, charted) over one ``enumerate_k_sets``: the dimension of each
    chart that ``_separable`` walks, and (idx, dimension) per chart it builds."""
    walked, charted = [], []

    def walk(ys, *args):
        walked.append(len(ys[0]) - 1)
        return _packed_walk(ys, *args)

    def chart(ys, idx):
        out = _affine_chart(ys, idx)
        charted.append((idx, len(out[0]) - 1))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(facets, "_packed_walk", walk)
        mp.setattr(facets, "_affine_chart", chart)
        enumerate_k_sets(ps, 1)
    return walked, charted


class TestKSets:
    def test_square_one_sets(self):
        fam = enumerate_k_sets(SQUARE, 1)
        assert fam.sets == ((0,), (1,), (2,), (3,))

    def test_square_two_sets_exclude_diagonals(self):
        fam = enumerate_k_sets(SQUARE, 2)
        assert fam.sets == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_interior_point_excluded(self):
        ps = point_set([(0, 0), (3, 0), (0, 3), (1, 1)])
        fam = enumerate_k_sets(ps, 1)
        assert (3,) not in fam.sets and len(fam.sets) == 3

    @given(st.integers(0, 300), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matches_lp_oracle_in_plane(self, seed, k):
        ps = random_point_set(6, 2, seed=seed)
        assert enumerate_k_sets(ps, k).sets == k_sets_oracle(ps, k)

    @given(st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_matches_lp_oracle_in_space(self, seed):
        ps = random_point_set(6, 3, seed=seed)
        for k in (1, 2, 3):
            assert enumerate_k_sets(ps, k).sets == k_sets_oracle(ps, k)

    def test_collinear_fallback(self):
        # rank < dim: the sweep runs in the chart of the line the points span
        flat = point_set([(0, 0), (1, 0), (2, 0), (3, 0)])
        fam = enumerate_k_sets(flat, 2)
        assert fam.sets == ((0, 1), (2, 3))

    def test_repeated_points_stay_together(self):
        line = point_set([(0,), (1,), (1,), (2,)])
        assert enumerate_k_sets(line, 1).sets == ((0,), (3,))
        assert enumerate_k_sets(line, 2).sets == ()
        assert k_set_counts(point_set([(1, 1)] * 4)) == (0, 0, 0)

    def test_count_vector_symmetric(self):
        ps = random_point_set(6, 2, seed=9)
        counts = k_set_counts(ps)
        assert len(counts) == 5
        assert counts == counts[::-1]

    def test_lifted_counts_consistent(self):
        src = random_point_set(7, 2, seed=21)
        lifted = circle_map().apply(src)
        counts = k_set_counts(lifted)
        oracle = tuple(len(k_sets_oracle(lifted, k)) for k in range(1, 7))
        assert counts == oracle

    @pytest.mark.parametrize("seed", range(2))
    def test_conic_lift_matches_lp_oracle(self, seed):
        # a neighborly lift: most k-sets are found from many cell vertices
        lifted = veronese(2, 2).apply(map_generic_set(8, veronese(2, 2), seed))
        oracle = [k_sets_oracle(lifted, k) for k in range(1, 8)]
        assert [enumerate_k_sets(lifted, k).sets for k in range(1, 8)] == oracle
        assert k_set_counts(lifted) == tuple(map(len, oracle))

    @pytest.mark.parametrize("seed", range(2))
    def test_convex_position_wider_than_a_word(self, seed):
        # on the parabola the hull order is the index order, so the k-sets
        # are the n cyclic runs of k indices, masks of up to 66 bits
        n = 66
        ps = convex_position_set(n, 2, seed)
        assert k_set_counts(ps) == (n,) * (n - 1)
        for k in (1, 2, 33, 64, 65):
            runs = sorted(tuple(sorted((s + j) % n for j in range(k))) for s in range(n))
            assert enumerate_k_sets(ps, k).sets == tuple(runs)

    @pytest.mark.parametrize("seed", range(2))
    def test_collinear_repeats_wider_than_a_word(self, seed):
        # 70 points on a line, some repeated, in shuffled index order: a cut
        # after the k lowest that splits no block of repeats gives a k-set
        # and its complement
        rng = random.Random(seed)
        xs = [rng.randrange(50) for _ in range(70)]
        ps = point_set([(x,) for x in xs])
        order = sorted(range(70), key=xs.__getitem__)
        expected = {k: [] for k in range(1, 70)}
        for k in range(1, 70):
            if xs[order[k - 1]] < xs[order[k]]:
                expected[k].append(tuple(sorted(order[:k])))
                expected[70 - k].append(tuple(sorted(order[k:])))
        assert k_set_counts(ps) == tuple(len(expected[k]) for k in range(1, 70))
        assert not all(expected.values())  # some cut splits a block
        for k in range(1, 70):
            assert enumerate_k_sets(ps, k).sets == tuple(sorted(expected[k])), k

    @given(grid_sets())
    @settings(max_examples=25, deadline=None)
    def test_degenerate_grid_matches_oracle(self, ps):
        oracle = [k_sets_oracle(ps, k) for k in range(1, ps.n)]
        assert [enumerate_k_sets(ps, k).sets for k in range(1, ps.n)] == oracle
        counts = k_set_counts(ps)
        assert counts == tuple(map(len, oracle)) == _tally(ps)
        assert counts == counts[::-1]

    @pytest.mark.parametrize("ps", [
        *(_grid_sample(seed, 4, 2, 9, 2) for seed in range(3)),
        *(_grid_sample(seed, 3, 3, 9, 0) for seed in range(3)),
        _line_sample(0, (2, 1)), _line_sample(1, (1, -3, 2)),
        _grid_sample(0, 5, 1, 4, 3), _grid_sample(1, 3, 1, 3, 4),
        point_set([(2, -1, 1)] * 5),
    ], ids=[*(f"grid2-{seed}" for seed in range(3)), *(f"grid3-{seed}" for seed in range(3)),
            "line2", "line3", "dim1-a", "dim1-b", "coincident"])
    def test_degenerate_sets_match_oracle(self, ps):
        # every k, for the counts and the sets, against the margin LP
        _check_k_sets_without_lp(ps)

    def test_collinear_rationals_match_oracle(self):
        # points of one line with unequal denominators, one repeated, and the
        # same line through R^3: the order along the line needs every D
        ts = [F(-1, 2), F(1, 3), F(2, 3), F(1, 3), F(5, 4), F(-3, 7), F(9, 10)]
        for base, step in (((F(1, 2), F(-1, 3)), (F(2, 5), F(-1, 7))),
                           ((F(1, 2), F(-1, 3), F(3)), (F(2, 5), F(-1, 7), F(1, 9)))):
            _check_k_sets_without_lp(point_set([[b + t * v for b, v in zip(base, step)] for t in ts]))

    @pytest.mark.parametrize("ps", [
        _line_sample(2, (1, -3, 2)), *(_grid_sample(seed, 4, 2, 14, 0) for seed in range(3)),
        *(_grid_sample(seed, 13, 2, 9, 3) for seed in range(3)),
    ], ids=["line3", *(f"grid2-{seed}" for seed in range(3)),
            *(f"repeated-{seed}" for seed in range(3))])
    def test_lines_and_points_walk_no_chart(self, ps):
        # coincident and collinear flats are answered without a walk, and
        # only the whole set and flats of dim >= 2 get a chart
        walked, charted = _charts_walked(ps)
        assert all(dim >= 2 for dim in walked), walked
        assert charted[0][0] == tuple(range(ps.n))
        assert all(dim >= 2 for _, dim in charted[1:]), charted

    def test_planar_flats_still_walk(self):
        walked, charted = _charts_walked(_grid_sample(0, 3, 3, 12, 0))
        assert 2 in walked and any(dim == 2 for _, dim in charted[1:])

    @given(st.sampled_from((3, 4)), st.integers(0, 300))
    @settings(max_examples=10, deadline=None)
    def test_general_position_runs_no_lp(self, dim, seed):
        _check_k_sets_without_lp(random_point_set(dim + 4, dim, seed=seed))

    @given(grid_sets())
    @settings(max_examples=25, deadline=None)
    def test_degenerate_input_runs_no_lp(self, ps):
        _check_k_sets_without_lp(ps)

    @given(flat_sets())
    @settings(max_examples=40, deadline=None)
    def test_flat_input_runs_no_lp(self, ps):
        _check_k_sets_without_lp(ps)


class TestRecords:
    def test_oriented_facet_contract(self):
        assert_record(OrientedFacet, {"indices": (0, 2), "sign": -1, "k": 1},
                      "OrientedFacet(indices=(0, 2), sign=-1, k=1)", sign=1)

    def test_k_facet_profile_contract(self):
        assert_record(KFacetProfile, {"n": 4, "p": 2, "e": (4, 4, 4)},
                      "KFacetProfile(n=4, p=2, e=(4, 4, 4))", e=(4, 5, 3))
        assert k_facet_profile(SQUARE) == KFacetProfile(4, 2, (4, 4, 4))

    def test_k_set_family_contract(self):
        assert_record(KSetFamily, {"k": 2, "sets": ((0, 1), (0, 3), (1, 2), (2, 3))},
                      "KSetFamily(k=2, sets=((0, 1), (0, 3), (1, 2), (2, 3)))", k=3)
        assert enumerate_k_sets(SQUARE, 1) == KSetFamily(k=1, sets=((0,), (1,), (2,), (3,)))
