import hashlib
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfacets import genpos
from kfacets.errors import DegeneracyError, GenerationError, InputError
from kfacets.facelab import FaceCertificate, face_certificate
from kfacets.genpos import (
    _moment_vertex_certificate,
    _origin_lines_distinct,
    check_distinct_first_coordinate,
    convex_position_set,
    distinct_first_coordinate_set,
    generate,
    map_generic_set,
    random_point_set,
)
from kfacets.geometry import Hyperplane, PointSet, is_general_linear_position, point_set
from kfacets.liftmaps import circle_map, homogeneous_veronese, moment_curve, veronese
from kfacets.serialize import load_point_set

DATA = Path(__file__).parent / "data"


def origin_lines_oracle(points) -> bool:
    """No pair of points on one line through the origin: a pair is on one
    such line iff every 2x2 minor of the two points is 0."""
    def one_line(p, q):
        return all(p[r] * q[s] == p[s] * q[r] for r, s in combinations(range(len(p)), 2))
    return not any(one_line(p, q) for p, q in combinations(points, 2))


@st.composite
def origin_line_sets(draw):
    """Rational sets in dims 1-3 with, at will, scaled copies (negative
    multiples among them), repeated points and the origin."""
    d = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5))
    factors = st.sampled_from([-2, -1, Fraction(-1, 3), 1, Fraction(5, 2)])
    for p, f in draw(st.lists(st.tuples(st.sampled_from(points), factors), max_size=2)):
        points.append(tuple(c * f for c in p))
    if draw(st.booleans()):
        points.append((0,) * d)
    return draw(st.permutations(points))


class TestRandomPointSet:
    def test_deterministic(self):
        assert random_point_set(8, 3, seed=42) == random_point_set(8, 3, seed=42)

    def test_golden_seed(self):
        got = random_point_set(5, 2, seed=1)
        assert got == load_point_set(DATA / "glp_n5_d2_seed1.json")

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_always_general_position(self, seed):
        ps = random_point_set(6, 2, seed=seed)
        assert is_general_linear_position(ps)

    def test_retries_exhausted(self):
        # no draw can pass: a homogeneous map from dim 1 puts every pair of
        # points on one line through the origin
        with pytest.raises(GenerationError, match="within 200 tries"):
            map_generic_set(3, homogeneous_veronese(1, 2), 0)


class TestDrawRule:
    """``genpos._draw_until`` rejects a draw whose predicate raises
    DegeneracyError, as a sweep does on a set not in general position."""

    @staticmethod
    def first_draw_rejected(raising):
        seen = []

        def accept(ps):
            seen.append(ps)
            if len(seen) > 1:
                return len(seen)
            if raising:
                raise DegeneracyError("rejected", (0,))
            return False

        return genpos._draw_until(accept, "set", 5, 2, 7), seen

    def test_a_raise_rejects_like_false(self):
        raised, refused = self.first_draw_rejected(True), self.first_draw_rejected(False)
        assert raised == refused
        (ps, accepted), seen = raised
        assert accepted == 2 and seen[1] is ps and seen[0] != ps

    def test_always_raising_exhausts_the_retries(self):
        calls = []

        def accept(ps):
            calls.append(ps)
            raise DegeneracyError("rejected", (0,))

        with pytest.raises(GenerationError, match="within 200 tries"):
            genpos._draw_until(accept, "set", 5, 2, 7)
        assert len(calls) == genpos.DEFAULT_RETRIES

    def test_seeded_draws_unchanged(self):
        # SHA-256 of the drawn rows as point_set would build them from the
        # same ints: a draw is its integer rows, with no Fraction round trip
        sets = []
        for seed in range(5):
            sets += [random_point_set(n, d, seed) for n, d in ((1, 1), (3, 1), (6, 2), (9, 3))]
            for n in (4, 9):
                sets += [map_generic_set(n, veronese(2, 2), seed),
                         map_generic_set(n, homogeneous_veronese(2, 4), seed)]
            sets += [distinct_first_coordinate_set(n, d, seed) for n, d in ((4, 2), (7, 3))]
        digest = hashlib.sha256(repr([ps.rows for ps in sets]).encode()).hexdigest()
        assert digest == "1ae271c26f4c432591084ac2efdd62abae492f365941c202a87aabf2a5b8b935"

    def test_no_points_refused(self):
        for draw in (random_point_set, distinct_first_coordinate_set):
            with pytest.raises(InputError, match="need n >= 1"):
                draw(0, 2, 0)


class TestCheckers:
    """Genericity of a lift is GLP of the lifted set."""

    def test_conic_checker_negative(self):
        # distinct points, GLP in the plane, but six on a common conic
        # (unit circle scaled): x^2 + y^2 = 25 through integer points
        circle_pts = point_set([(5, 0), (3, 4), (-3, 4), (-5, 0), (-3, -4), (3, -4)])
        assert is_general_linear_position(circle_pts)
        assert not is_general_linear_position(veronese(2, 2).apply(circle_pts))

    def test_conic_checker_positive(self):
        ps = map_generic_set(7, veronese(2, 2), seed=12)
        assert is_general_linear_position(ps)
        assert is_general_linear_position(veronese(2, 2).apply(ps))

    def test_circle_checker_negative_on_cocircular(self):
        circle_pts = point_set([(5, 0), (3, 4), (-3, 4), (-5, 0), (-3, -4)])
        assert not is_general_linear_position(circle_map().apply(circle_pts))

    def test_circle_checker_positive(self):
        ps = map_generic_set(7, circle_map(), seed=3)
        assert is_general_linear_position(circle_map().apply(ps))

    def test_homogeneous_checker_rejects_shared_origin_line(self):
        # (1, 2) and (2, 4) lie on one line through the origin, so their
        # homogeneous quadratic lifts lie on one line through the origin too
        ps = point_set([(1, 2), (2, 4), (5, 1), (-3, 2), (1, -4)])
        assert not _origin_lines_distinct(ps)
        lifted = homogeneous_veronese(2, 2).apply(ps).points
        assert lifted[1] == tuple(4 * c for c in lifted[0])

    @given(origin_line_sets())
    @settings(max_examples=100, deadline=None)
    def test_origin_lines_distinct_matches_oracle(self, points):
        ps = point_set(points)
        assert _origin_lines_distinct(ps) == origin_lines_oracle(ps.points)

    def test_distinct_first_coordinate(self):
        assert check_distinct_first_coordinate(point_set([(1, 0), (2, 9)]))
        assert not check_distinct_first_coordinate(point_set([(1, 0), (1, 9)]))
        # primitive rows whose first coordinates are both 1/2
        halves = PointSet(2, ((1, 5, 2), (2, 7, 4)))
        assert halves.rows == ((1, 5, 2), (2, 7, 4))
        assert not check_distinct_first_coordinate(halves)
        assert check_distinct_first_coordinate(PointSet(2, ((1, 5, 2), (3, 7, 4))))

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)),
                    min_size=1, max_size=8), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_distinct_first_coordinate_matches_fractions(self, rows, seed):
        for ps in (PointSet(2, tuple(rows)), random_point_set(len(rows), 2, seed)):
            firsts = {Fraction(row[0], row[-1]) for row in ps.rows}
            assert check_distinct_first_coordinate(ps) == (len(firsts) == ps.n)


class TestMapGenericSet:
    def test_lifted_set_is_generic(self):
        ps = map_generic_set(7, veronese(2, 2), seed=5)
        assert is_general_linear_position(ps)
        assert is_general_linear_position(veronese(2, 2).apply(ps))

    def test_deterministic(self):
        a = map_generic_set(6, circle_map(), seed=9)
        assert a == map_generic_set(6, circle_map(), seed=9)

    def test_origin_line_constraint(self):
        ps = map_generic_set(6, homogeneous_veronese(2, 2), seed=4)
        assert _origin_lines_distinct(ps)
        assert is_general_linear_position(homogeneous_veronese(2, 2).apply(ps))

    @pytest.mark.parametrize("seed", range(3))
    def test_homogeneous_map_from_dim_3(self, seed):
        hv = homogeneous_veronese(3, 2)
        ps = map_generic_set(6, hv, seed)
        assert ps.dim == 3 and _origin_lines_distinct(ps)
        assert is_general_linear_position(hv.apply(ps))


class TestSpecialFamilies:
    def test_distinct_first_coordinate_set(self):
        ps = distinct_first_coordinate_set(8, 3, seed=2)
        assert check_distinct_first_coordinate(ps)
        assert is_general_linear_position(ps)

    def test_convex_position_planar(self):
        ps = convex_position_set(6, 2, seed=0)
        assert is_general_linear_position(ps)
        for i in range(ps.n):
            assert face_certificate(ps, (i,)) is not None

    def test_convex_position_3d(self):
        ps = convex_position_set(6, 3, seed=1)
        assert ps.dim == 3
        assert is_general_linear_position(ps)
        for i in range(ps.n):
            assert face_certificate(ps, (i,)) is not None

    def test_convex_deterministic(self):
        assert convex_position_set(7, 3, seed=5) == convex_position_set(7, 3, seed=5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_vertex_certificates_agree_with_lp(self, d):
        for seed in range(3):
            params = sorted(random.Random(seed).sample(range(-20, 21), d + 3))
            ps = moment_curve(d).apply(point_set([[t] for t in params]))
            for i in range(ps.n):
                cert = _moment_vertex_certificate(ps, i)
                assert (cert is None) == (face_certificate(ps, (i,)) is None)
                assert cert is None or cert.validate(ps, (i,))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_vertex_certificates_match_the_rational_form(self, d):
        # read off the integer rows, the plane of -2 t x_1 + x_2 = -t^2
        # (d = 1: x = t at the first point, -x = -t at the last)
        rng = random.Random(d)
        params = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(d + 4)})
        ps = moment_curve(d).apply(point_set([[t] for t in params]))
        for i, t in enumerate(params):
            if d >= 2:
                expected = Hyperplane((-2 * t, 1) + (0,) * (d - 2), -t * t)
            elif i in (0, ps.n - 1):
                sign = 1 if i == 0 else -1
                expected = Hyperplane((sign,), sign * t)
            else:
                expected = None
            cert = _moment_vertex_certificate(ps, i)
            assert (cert and (cert.hyperplane, cert.strict)) == (expected and (expected, True))

    def test_line_interior_point_not_a_vertex(self):
        # every seed would put an interior point on the line, so none is drawn
        assert convex_position_set(2, 1, seed=0).n == 2
        for n in (3, 4, 6):
            with pytest.raises(InputError, match="in dimension 1 only 2 points can be "
                               f"in convex position, got n={n}"):
                convex_position_set(n, 1, seed=4)

    def test_failed_vertex_certificate_raises(self, monkeypatch):
        bad = FaceCertificate(Hyperplane((Fraction(1), Fraction(0)), Fraction(0)), strict=True)
        monkeypatch.setattr(genpos, "_moment_vertex_certificate", lambda ps, i: bad)
        with pytest.raises(RuntimeError, match="failed substitution"):
            convex_position_set(5, 2, seed=0)


class TestGenerate:
    @pytest.mark.parametrize("mode,d", [
        ("glp", 2), ("conic", 2), ("hom:2", 2), ("convex", 3), ("distinct-x1", 2),
    ])
    def test_modes_produce_generic_sets(self, mode, d):
        ps = generate(mode, 6, d, seed=8)
        assert ps.n == 6 and ps.dim == d
        assert is_general_linear_position(ps)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            generate("weird", 6, 2, seed=0)
