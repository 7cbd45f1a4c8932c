import ast
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracle
from conftest import assert_record, plane_value
from lp_oracle import lp_face, separation_hyperplane, strictly_separable, weak_separation
from test_facets import flat_sets, walk_sets
from veronese_oracle import veronese_certificate

from kfacets import facelab, facets, geometry, simplex
from kfacets.cli import _degree_by_construction
from kfacets.errors import DegeneracyError, InputError
from kfacets.facelab import (
    FaceCertificate,
    RadonWitness,
    embedding_face_certificate,
    face_certificate,
    is_weakly_k_neighborly,
    neighborliness_degree,
    radon_partition,
    veronese_certifier,
)
from kfacets.genpos import (
    convex_position_set,
    distinct_first_coordinate_set,
    map_generic_set,
    random_point_set,
)
from kfacets.geometry import Hyperplane, point_set
from kfacets.liftmaps import moment_curve, neighborly_embedding, veronese
from kfacets.projection import census, stereographic_project
from kfacets.serialize import certificate_from_json, certificate_to_json, radon_to_json
from kfacets.simplex import maximize

F = Fraction

SQUARE = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE_CENTER = point_set([(0, 0), (3, 0), (0, 3), (1, 1)])


class TestFaceCertificate:
    def test_square_edges_are_strict_faces(self):
        for pair in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            cert = face_certificate(SQUARE, pair)
            assert cert is not None and cert.strict
            assert cert.validate(SQUARE, pair)

    def test_square_diagonals_are_not_faces(self):
        assert face_certificate(SQUARE, (0, 2)) is None
        assert face_certificate(SQUARE, (1, 3)) is None

    def test_square_vertices_are_strict_faces(self):
        for i in range(4):
            assert face_certificate(SQUARE, (i,)) is not None

    def test_interior_point_is_not_a_face(self):
        assert face_certificate(TRIANGLE_CENTER, (3,)) is None

    def test_validate_refuses_a_subset_naming_no_point_or_one_twice(self):
        cert = face_certificate(SQUARE, (0,))
        assert cert.validate(SQUARE, (0,))
        assert not cert.validate(SQUARE, (0, 99))
        assert not cert.validate(SQUARE, (0, -1))
        assert not cert.validate(SQUARE, (0, 0))

    def test_whole_set_strict_rejected(self):
        with pytest.raises(InputError):
            face_certificate(SQUARE, (0, 1, 2, 3), strict=True)

    def test_whole_set_weak_allowed_for_flat_data(self):
        flat = point_set([(0, 0), (1, 0), (2, 0)])
        cert = face_certificate(flat, (0, 1, 2), strict=False)
        assert cert is not None and not cert.strict
        assert cert.validate(flat, (0, 1, 2))

    def test_weak_face_on_collinear_boundary(self):
        # 0,1,2 collinear on the bottom edge: strict fails for (0,2), weak passes
        ps = point_set([(0, 0), (1, 0), (2, 0), (1, 2)])
        assert face_certificate(ps, (0, 2)) is None
        cert = face_certificate(ps, (0, 2), strict=False)
        assert cert is not None and cert.validate(ps, (0, 2))

    @pytest.mark.parametrize("plane", [Hyperplane((0, 0, 1), 5), Hyperplane((1,), 0)])
    def test_validate_rejects_a_plane_of_another_dimension(self, plane):
        line = point_set([[0], [1], [2]])
        assert face_certificate(line, (1,), strict=False) is None
        assert not FaceCertificate(plane, strict=False).validate(line, (1,))
        assert not FaceCertificate(plane, strict=False).validate(SQUARE, (0, 1))

    def test_validate_rejects_wrong_plane(self):
        bad = FaceCertificate(Hyperplane((F(1), F(0)), F(0)), strict=True)
        assert not bad.validate(SQUARE, (0, 1))


class TestSeparation:
    def test_corner_separable(self):
        h = separation_hyperplane(SQUARE, (2,))
        assert h is not None
        assert plane_value(h, SQUARE.points[2]) > 0
        assert all(plane_value(h, SQUARE.points[i]) < 0 for i in (0, 1, 3))

    def test_adjacent_pair_separable_diagonal_not(self):
        assert strictly_separable(SQUARE, (0, 1))
        assert not strictly_separable(SQUARE, (0, 2))

    def test_interior_point_not_separable(self):
        assert not strictly_separable(TRIANGLE_CENTER, (3,))

    def test_empty_and_full_rejected(self):
        with pytest.raises(InputError):
            separation_hyperplane(SQUARE, ())
        with pytest.raises(InputError):
            separation_hyperplane(SQUARE, (0, 1, 2, 3))

    @given(st.sets(st.integers(0, 3), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_separability_respects_complement(self, subset):
        # a subset of the square is separable iff its complement is
        sub = tuple(sorted(subset))
        comp = tuple(i for i in range(4) if i not in subset)
        assert strictly_separable(SQUARE, sub) == strictly_separable(SQUARE, comp)


class TestNeighborliness:
    def test_planar_square_is_1_neighborly(self):
        assert neighborliness_degree(SQUARE, 2) == 1

    def test_moment_curve_dim4_is_2_neighborly(self):
        ps = moment_curve(4).apply(point_set([(t,) for t in range(1, 7)]))
        assert neighborliness_degree(ps, 3) == 2

    def test_lifted_plane_pairs_are_faces(self):
        src = point_set([(0, 0), (5, 1), (2, 7), (-4, 3), (-3, -5), (6, -2)])
        lifted = veronese(2, 2).apply(src)
        assert neighborliness_degree(lifted, 2) == 2

    def test_max_k_bounds(self):
        with pytest.raises(InputError):
            neighborliness_degree(SQUARE, 0)
        with pytest.raises(InputError):
            neighborliness_degree(SQUARE, 4)

    def test_weak_neighborliness_flat_witness(self):
        # 5 points in dim 3: some 2-subset must fail weak 2-neighborliness
        # only when forced; a simplex plus center fails at the center pairs
        ps = point_set([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        ok, witness = is_weakly_k_neighborly(ps, 2)
        assert not ok and witness is not None
        assert face_certificate(ps, witness, strict=False) is None

    def test_weak_neighborliness_positive(self):
        ps = moment_curve(4).apply(point_set([(t,) for t in range(1, 7)]))
        ok, witness = is_weakly_k_neighborly(ps, 2)
        assert ok and witness is None


class TestConicEdge:
    # the degree-2 case of the Veronese builder: the squared line through a pair
    def test_horizontal_axis_pair(self):
        # points on y = 0: supporting conic is y^2 <= 0 flipped to >= 0 form
        cert = veronese_certifier(point_set([(1, 0), (3, 0)]), 2)((0, 1))
        assert cert.hyperplane.normal == (0, 0, 0, 0, 1)
        assert cert.hyperplane.offset == 0

    def test_vertical_axis_pair(self):
        cert = veronese_certifier(point_set([(0, 2), (0, 5)]), 2)((0, 1))
        assert cert.hyperplane.normal == (0, 0, 1, 0, 0)

    def test_general_pair_agrees_with_lp(self):
        src = point_set([(0, 0), (5, 1), (2, 7), (-4, 3), (-3, -5), (6, -2), (1, -4)])
        lifted, certify = veronese(2, 2).apply(src), veronese_certifier(src, 2)
        for pair in combinations(range(src.n), 2):
            cert = certify(pair)
            assert cert.validate(lifted, pair)
            assert face_certificate(lifted, pair, strict=False) is not None

    def test_coincident_points_rejected(self):
        with pytest.raises(InputError):
            veronese_certifier(point_set([(1, 1), (2, 3)]), 2)((1, 1))


def _veronese_degree(src, m, cap):
    return _degree_by_construction(veronese(src.dim, m).apply(src), cap,
                                   veronese_certifier(src, m))


class TestVeroneseCertificate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d,n", [(2, 7), (3, 6)])
    def test_quadratic_degree_agrees_with_lp(self, d, n, seed):
        src = random_point_set(n, d, seed)
        lifted = veronese(d, 2).apply(src)
        assert _veronese_degree(src, 2, d) == neighborliness_degree(lifted, d) == d

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quartic_degree_agrees_with_lp(self, seed):
        src = map_generic_set(6, veronese(2, 2), seed)
        lifted = veronese(2, 4).apply(src)
        assert _veronese_degree(src, 4, 5) == neighborliness_degree(lifted, 5) == 5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_moment_curve_degree_agrees_with_lp(self, seed):
        # d = 1, m = 6: q is a cubic, so every subset of size <= 3 is a face
        src = map_generic_set(6, veronese(1, 3), seed)
        lifted = veronese(1, 6).apply(src)
        assert _veronese_degree(src, 6, 3) == neighborliness_degree(lifted, 3) == 3

    def test_certificate_validates_on_lifted_set(self):
        src = map_generic_set(7, veronese(2, 2), 4)
        lifted, certify = veronese(2, 4).apply(src), veronese_certifier(src, 4)
        for subset in combinations(range(src.n), 5):
            cert = certify(subset)
            assert cert is not None and cert.strict
            assert cert.validate(lifted, subset)

    def test_search_reaches_the_last_t(self):
        # kernel basis x, y: q_0 = x vanishes at (0, 5), q_1 = x + y at
        # (3, -3); t = 2 = (n - |S|)(r - 1) gives q = x + 2y
        src = point_set([(0, 0), (0, 5), (3, -3)])
        cert = veronese_certifier(src, 2)((0,))
        assert cert.hyperplane.normal == (0, 0, 1, 4, 4)
        assert cert.hyperplane.offset == 0

    def test_co_conic_points_have_no_certificate(self):
        # six points on x^2 + y^2 = 25: the only conic through the first
        # five is the circle, which vanishes at the sixth too
        src = point_set([(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, -3)])
        certify = veronese_certifier(src, 4)
        assert certify((0, 1, 2, 3, 4)) is None
        assert certify((0, 1, 2, 3)) is not None

    @pytest.mark.parametrize("subset,m", [
        ((0, 1), 3),
        ((0, 1), 0),
        ((), 2),
        ((0, 0), 4),
        ((0, 1, 2), 2),
        ((0, 7), 2),
    ])
    def test_bad_arguments_rejected(self, subset, m):
        src = random_point_set(6, 2, 0)
        with pytest.raises(InputError):
            veronese_certifier(src, m)(subset)


class TestPinnedVeroneseCertificates:
    """The plane (or None) of every subset up to the cap, seeds 0-2, from one
    certifier per set, as one SHA-256 per family; recorded when each call
    still rebuilt the monomial rows and squared q over exponent tuples."""

    @pytest.mark.parametrize("draw,m,cap,digest", [
        (lambda s: map_generic_set(6, veronese(1, 3), s), 6, 3,
         "7e2bba6326ca8ad4fa99e050b43e7a9024a2a6c4c382a22dc064bdd7f51f1580"),
        (lambda s: random_point_set(7, 2, s), 2, 2,
         "de7c26d1bbacdc4f135bc8a2508d700b7232a1ea4503587f7abad96c4c6a73a5"),
        (lambda s: map_generic_set(6, veronese(2, 2), s), 4, 5,
         "ac11d1c9a98aa78e86e0b075659828c3332e9f6b2a86d286180107ebf7a0ea55"),
        (lambda s: random_point_set(6, 3, s), 2, 3,
         "fffbf639829e2b0584eae4449040fb921496e49bbfac1ad1af2444522635405e"),
    ], ids=["moment-m6", "plane-m2", "plane-m4", "space-m2"])
    def test_planes_unchanged(self, draw, m, cap, digest):
        planes = []
        for seed in (0, 1, 2):
            src = draw(seed)
            certify = veronese_certifier(src, m)
            for size in range(1, cap + 1):
                for subset in combinations(range(src.n), size):
                    cert = certify(subset)
                    planes.append(cert and (cert.hyperplane.normal, cert.hyperplane.offset))
        assert hashlib.sha256(repr(planes).encode()).hexdigest() == digest


@st.composite
def veronese_calls(draw):
    """(src, m, calls): a set in dim 1-3 with coincident, collinear and (in
    dim >= 2) co-conic points, integer coordinates up to 2^200 or rationals,
    and a run of shuffled subsets, each keeping a prefix of the last one of
    any length, so a call can also fall back to a shorter common prefix."""
    dim, m = draw(st.integers(1, 3)), draw(st.sampled_from((2, 4, 6)))
    w = comb(dim + m // 2, dim)
    bound = draw(st.sampled_from((4, 2 ** 200)))
    ints = st.integers(-bound, bound)
    scalar = ints | st.builds(F, ints, st.integers(1, bound))
    radius = draw(st.integers(1, 9))
    pts = []
    for _ in range(draw(st.integers(1, min(w + 2, 8)))):
        kind = draw(st.sampled_from(("fresh", "coincident", "collinear", "conic")))
        if kind == "coincident" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "collinear" and len(pts) > 1:
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            t = draw(scalar)
            pts.append(tuple(u + t * (v - u) for u, v in zip(a, b)))
        elif kind == "conic" and dim > 1:
            # on the circle of this radius about the origin, in the first two axes
            t = draw(st.integers(-9, 9))
            pts.append((F(radius * (1 - t * t), 1 + t * t), F(2 * radius * t, 1 + t * t))
                       + (0,) * (dim - 2))
        else:
            pts.append(tuple(draw(scalar) for _ in range(dim)))
    src, top = point_set(pts), min(len(pts), w - 1)
    calls, last = [], ()
    for _ in range(draw(st.integers(1, 6))):
        keep = draw(st.integers(0, len(last)))
        rest = draw(st.permutations([i for i in range(src.n) if i not in last[:keep]]))
        last = last[:keep] + tuple(rest[:draw(st.integers(max(keep, 1), top)) - keep])
        calls.append(last)
    return src, m, calls


class TestVeroneseAgainstOracle:
    """The packed prefix certifier against a fresh ``_nullspace`` kernel per
    subset (``veronese_oracle``): the same planes, and the same Nones."""

    @given(veronese_calls())
    @settings(max_examples=150, deadline=None)
    def test_same_certificate_on_every_call(self, case):
        src, m, calls = case
        certify = veronese_certifier(src, m)
        for subset in calls:
            assert certify(subset) == veronese_certificate(src, subset, m), subset

    @pytest.mark.parametrize("src,m", [
        (point_set([(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, -3)]), 4),
        (point_set([(0, 0), (0, 5), (3, -3)]), 2),
        (point_set([(1, 1), (1, 1), (2, 3), (4, 7), (0, 9)]), 4),
        (map_generic_set(6, veronese(1, 3), 0), 6),
    ], ids=["co-conic", "last-t", "coincident", "moment-m6"])
    def test_same_certificate_on_every_subset(self, src, m):
        certify = veronese_certifier(src, m)
        for size in range(1, min(src.n, len(facelab._square_coordinates(src.dim, m // 2)) - 1) + 1):
            for subset in combinations(range(src.n), size):
                for order in (subset, subset[::-1]):
                    assert certify(order) == veronese_certificate(src, order, m), order


class TestVeronesePivotCounts:
    """The certifier's pivots, counted through ``_pivot`` wrapped at both its
    bindings, as ``TestWalkCounts`` counts walks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_pivot_per_prefix_and_at_most_w_states(self, monkeypatch, seed):
        src = map_generic_set(6, veronese(2, 2), seed)
        lifted = veronese(2, 4).apply(src)
        pivots, pivot = [], geometry._pivot

        def counted(rows, shifted, i, *args):
            pivots.append(i)
            return pivot(rows, shifted, i, *args)

        monkeypatch.setattr(geometry, "_pivot", counted)
        monkeypatch.setattr(facelab, "_pivot", counted)
        certify = veronese_certifier(src, 4)
        w = len(facelab._square_coordinates(2, 2))
        state = dict(zip(certify.__code__.co_freevars,
                         (cell.cell_contents for cell in certify.__closure__)))

        def build(subset):
            cert = certify(subset)
            assert len(state["path"]) <= w
            return cert

        assert _degree_by_construction(lifted, 5, build) == 5
        # the distinct nonempty prefixes of the k-subsets of 6 points in
        # lex order, k = 1..5: 6 + 20 + 34 + 34 + 20
        assert len(pivots) <= 114


class TestEmbeddingCertificate:
    def test_explicit_product_polynomial(self):
        # roots 1 and 2: (x-1)^2 (x-2)^2 = x^4 - 6x^3 + 13x^2 - 12x + 4
        src = point_set([(1, 5), (2, -3), (3, 0), (4, 2)])
        cert = embedding_face_certificate(src, (0, 1), k=2)
        assert cert.hyperplane.normal == (-12, 13, -6, 1, 0)
        assert cert.hyperplane.offset == -4

    def test_rational_roots_give_the_same_plane(self):
        # (x - 1/2)^2 (x + 2/3)^2 times 36, in coprime integers
        src = point_set([("1/2", "3"), ("-2/3", "1/5"), ("5/4", "0"), ("3", "-1/2")])
        cert = embedding_face_certificate(src, (0, 1), k=2)
        assert cert.hyperplane.normal == (-4, -23, 12, 36, 0)
        assert cert.hyperplane.offset == -4
        assert cert.validate(neighborly_embedding(2, 2).apply(src), (0, 1))

    def test_certificate_validates_on_lifted_set(self):
        src = point_set([(1, 5), (2, -3), (3, 0), (4, 2), (6, 1)])
        lifted = neighborly_embedding(2, 2).apply(src)
        for pair in combinations(range(src.n), 2):
            cert = embedding_face_certificate(src, pair, k=2)
            assert cert.validate(lifted, pair)

    def test_shared_first_coordinate_breaks_strictness(self):
        # unchosen point 1 shares x1 with chosen point 0, so the product
        # polynomial vanishes there too and the strict check must fail
        src = point_set([(1, 5), (1, -3), (3, 0)])
        lifted = neighborly_embedding(2, 2).apply(src)
        cert = embedding_face_certificate(src, (0, 2), k=2)
        assert not cert.validate(lifted, (0, 2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k,d,n", [(1, 2, 5), (2, 2, 6), (2, 3, 5)])
    def test_degree_agrees_with_lp(self, k, d, n, seed):
        src = distinct_first_coordinate_set(n, d, seed)
        lifted = neighborly_embedding(k, d).apply(src)
        degree = _degree_by_construction(
            lifted, k, lambda subset: embedding_face_certificate(src, subset, k))
        assert degree == neighborliness_degree(lifted, k) == k

    def test_failed_substitution_ends_degree(self):
        # the certificate of vertex 0 also vanishes at point 1 (same x1)
        src = point_set([(1, 5), (1, -3), (3, 0)])
        lifted = neighborly_embedding(2, 2).apply(src)
        degree = _degree_by_construction(
            lifted, 2, lambda subset: embedding_face_certificate(src, subset, 2))
        assert degree == 0

    def test_subset_size_capped_by_k(self):
        src = point_set([(1, 5), (2, -3), (3, 0), (4, 2)])
        with pytest.raises(InputError):
            embedding_face_certificate(src, (0, 1, 2), k=2)


class TestRadon:
    def test_square_splits_into_diagonals(self):
        w = radon_partition(SQUARE)
        assert w.validate(SQUARE)
        parts = {tuple(sorted(w.part_q)), tuple(sorted(w.part_r))}
        assert parts == {(0, 2), (1, 3)}

    def test_triangle_with_interior_point(self):
        w = radon_partition(TRIANGLE_CENTER)
        assert w.validate(TRIANGLE_CENTER)
        assert {tuple(sorted(w.part_q)), tuple(sorted(w.part_r))} == {(3,), (0, 1, 2)}

    def test_five_points_in_three_dims(self):
        ps = point_set([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        w = radon_partition(ps)
        assert w.validate(ps)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(InputError):
            radon_partition(point_set(SQUARE.points[:3]))

    def test_witness_pinned_with_negative_last_pivot(self):
        from kfacets.geometry import _gauss_jordan

        ps = point_set([(2, 1), (0, 0), (1, 3), (3, 3)])
        assert _gauss_jordan(list(zip(*ps.rows)))[2] < 0
        w = radon_partition(ps)
        assert (w.part_q, w.part_r) == ((1, 3), (0, 2))
        obj = radon_to_json(ps, w)
        assert obj["lambdas"] == ["2/3", "4/9", "1/3", "5/9"]
        assert obj["point"] == ["5/3", "5/3"]

    def test_witness_pinned_on_mixed_denominators(self):
        ps = point_set([("1/2", "0", "1/3"), ("2", "-1/4", "0"), ("0", "3/5", "1"),
                        ("-1", "1", "-2/3"), ("1/3", "1/2", "1/4")])
        w = radon_partition(ps)
        assert (w.part_q, w.part_r) == ((0, 4), (1, 2, 3))
        obj = radon_to_json(ps, w)
        assert obj["lambdas"] == ["151/1345", "412/1345", "233/538", "701/2690", "1194/1345"]
        assert obj["point"] == ["947/2690", "597/1345", "2093/8070"]

    def test_degenerate_input_rejected(self):
        flat = point_set([(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(DegeneracyError):
            radon_partition(flat)


class TestRadonWitnessRejects:
    """validate substitutes mu as given, so each broken mu fails, and none
    raises.  A point's weight in its part is lambda_j = |mu_j| D_j."""

    PINNED = point_set([("1/2", "0", "1/3"), ("2", "-1/4", "0"), ("0", "3/5", "1"),
                        ("-1", "1", "-2/3"), ("1/3", "1/2", "1/4")])
    MU = (151, -618, -699, -701, 597)  # rows D = (6, 4, 5, 3, 12)
    # on the line: 1 = 1/2 * 0 + 1/2 * 2, so mu = (-1, -1, 2) is a witness
    LINE = point_set([(0,), (2,), (1,)])

    def test_pinned_mu(self):
        assert radon_partition(self.PINNED).mu == self.MU

    @pytest.mark.parametrize("i", range(5))
    def test_one_changed_lambda(self, i):
        mu = list(self.MU)
        mu[i] += 1
        assert not RadonWitness(tuple(mu)).validate(self.PINNED)

    def test_traded_lambdas_keep_the_sum_but_not_the_mix(self):
        # part R = (1, 2, 3): 5 * D_1 = 4 * D_2, so R's weight stays the same
        mu = (151, -618 + 5, -699 - 4, -701, 597)
        assert sum(v * y[-1] for v, y in zip(mu, self.PINNED.rows)) == 0
        assert not RadonWitness(mu).validate(self.PINNED)

    # each delta is zero on the weights and on every axis but one, so 2 mu + delta
    # keeps the parts and balances their weights, but the two mixes differ on that axis
    DELTAS = ((109, -114, -42, 4, 0), (-260, 135, 144, 100, 0), (-3, 36, -81, 93, 0))

    @pytest.mark.parametrize("axis", range(3))
    def test_wrong_common_point(self, axis):
        w = RadonWitness(tuple(2 * v + dv for v, dv in zip(self.MU, self.DELTAS[axis])))
        assert (w.part_q, w.part_r) == ((0, 4), (1, 2, 3))
        sums = [sum(v * y[c] for v, y in zip(w.mu, self.PINNED.rows)) for c in range(4)]
        assert [c for c, v in enumerate(sums) if v] == [axis]
        assert not w.validate(self.PINNED)

    def test_zero_weight(self):
        assert not RadonWitness((151, -618, 0, -701, 597)).validate(self.PINNED)
        # R = (0, 1, 3) would mix 1 = 1/2 * 0 + 1/2 * 2 + 0 * 5, the columns balance
        assert not RadonWitness((-1, -1, 2, 0)).validate(point_set([(0,), (2,), (1,), (5,)]))

    def test_negative_weight(self):
        # point 0's weight with the wrong sign: it changes part
        assert not RadonWitness((-151, *self.MU[1:])).validate(self.PINNED)

    def test_missing_index(self):
        # point 3 is in no part; the other three still balance
        assert not RadonWitness((-1, -1, 2)).validate(point_set([(0,), (2,), (1,), (5,)]))
        assert not RadonWitness(self.MU[:4]).validate(self.PINNED)

    def test_index_out_of_range(self):
        # an entry for a point past the last; the three points still balance
        assert not RadonWitness((-1, -1, 2, 5)).validate(self.LINE)
        assert not RadonWitness((*self.MU, 1)).validate(self.PINNED)

    def test_mu_of_another_set(self):
        other = point_set([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        assert not radon_partition(other).validate(self.PINNED)

    def test_line_witness_passes(self):
        w = RadonWitness((-1, -1, 2))
        assert w.validate(self.LINE)
        assert (w.part_q, w.part_r) == ((2,), (0, 1))

    def test_negated_line_witness_passes(self):
        # -mu is the same dependence with Q and R swapped
        w = RadonWitness((1, 1, -2))
        assert w.validate(self.LINE)
        assert (w.part_q, w.part_r) == ((0, 1), (2,))

    def test_changed_lambda_at_the_origin(self):
        # point 0 sits at 0, so its weight moves the sum of R but not the mix
        assert not RadonWitness((-2, -1, 2)).validate(self.LINE)

    def test_empty_part(self):
        assert not RadonWitness((1, 1, 1)).validate(self.LINE)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_validate_iff_radon_weights_balance(self, data):
        # points from a small pool, so repeats are common, and then often
        # their mix sum c_j p_j / sum c_j weighted -sum c_j, with mu_j D_j = c_j K
        # a true dependence; then mu is kept, bumped, zeroed, cut, grown, padded
        # with a zero for one more point, or redrawn
        dim = data.draw(st.integers(1, 2))
        pool = st.tuples(*[st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2, 3)])] * dim)
        points = data.draw(st.lists(pool, min_size=1, max_size=3))
        c = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(points),
                               max_size=len(points)))
        if sum(c):
            points.append(tuple(sum(cj * p[i] for cj, p in zip(c, points)) / sum(c)
                                for i in range(dim)))
            c.append(-sum(c))
        den = [lcm(*(x.denominator for x in p)) for p in points]
        mu = [cj * lcm(*den) // dj for cj, dj in zip(c, den)]
        j = data.draw(st.integers(0, len(mu) - 1))
        change = data.draw(st.sampled_from(["keep", "bump", "zero", "cut", "grow", "pad",
                                            "redraw"]))
        if change == "bump":
            mu[j] += data.draw(st.sampled_from([-1, 1]))
        elif change == "zero":
            mu[j] = 0
        elif change == "cut":
            del mu[j]
        elif change == "grow":
            mu.append(data.draw(st.integers(-3, 3)))
        elif change == "pad":
            points.append(data.draw(pool))
            mu.append(0)
        elif change == "redraw":
            mu = data.draw(st.lists(st.integers(-3, 3), min_size=len(mu) - 1,
                                    max_size=len(mu) + 1))
        ps = point_set(points)
        lam = [abs(v) * y[-1] for v, y in zip(mu, ps.rows)]
        q = [j for j, v in enumerate(mu) if v > 0]
        r = [j for j, v in enumerate(mu) if v < 0]
        expected = (len(mu) == ps.n and 0 not in mu
                    and sum(lam[j] for j in q) == sum(lam[j] for j in r)
                    and all(sum(lam[j] * ps.points[j][i] for j in q)
                            == sum(lam[j] * ps.points[j][i] for j in r)
                            for i in range(ps.dim)))
        assert RadonWitness(tuple(mu)).validate(ps) is expected


class TestWeakSeparation:
    def test_separable_groups(self):
        q = point_set([(0, 0), (1, 0)])
        r = point_set([(5, 5), (6, 5)])
        h = weak_separation(q, r)
        assert h is not None
        assert all(plane_value(h, p) <= 0 for p in q.points)
        assert all(plane_value(h, p) >= 0 for p in r.points)

    def test_touching_groups_still_weakly_separable(self):
        q = point_set([(0, 0), (1, 0)])
        r = point_set([(1, 0), (2, 0)])
        assert weak_separation(q, r) is not None

    def test_radon_parts_are_inseparable(self):
        w = radon_partition(TRIANGLE_CENTER)
        q = point_set([TRIANGLE_CENTER.points[i] for i in w.part_q])
        r = point_set([TRIANGLE_CENTER.points[i] for i in w.part_r])
        assert weak_separation(q, r) is None

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            weak_separation(point_set([(0, 0)]), point_set([(0, 0, 0)]))


def _ints(h):
    return None if h is None else (tuple(int(c) for c in h.normal), int(h.offset))


class TestPinnedLPAnswers:
    """Exact answers of the weak face LP and of the oracle margin LP, and
    the strict certificates built from the hull facets.  Each LP has other
    optimal vertices (the grid pairs aside), so a change in row order,
    objective order or pivoting fails here and not only in a benchmark
    digest."""

    GRID = point_set(list(product(range(3), repeat=2)))
    SPACE = point_set([(0, 0, 0), (4, 1, 0), (1, 5, 2), (3, 3, 7), (-2, 4, 1),
                       (2, -3, 4), (1, 1, 1)])
    SPACE4 = point_set([(4, 2, 1, 4), (2, -1, 1, -4), (0, -2, 1, 4), (-3, -1, 0, 0),
                        (-3, -3, 3, 3), (-3, 1, -3, 2), (-2, -4, 0, 2), (2, -3, -4, -4)])

    def test_weak_pairs_of_grid(self):
        left, bottom = ((1, 0), 0), ((0, 1), 0)
        right, top = ((-1, 0), -2), ((0, -1), -2)
        faces = {(0, 1): left, (0, 2): left, (1, 2): left, (0, 3): bottom, (0, 6): bottom,
                 (3, 6): bottom, (2, 5): top, (2, 8): top, (5, 8): top, (6, 7): right,
                 (6, 8): right, (7, 8): right}
        for pair in combinations(range(9), 2):
            cert = face_certificate(self.GRID, pair, strict=False)
            assert (cert and _ints(cert.hyperplane)) == faces.get(pair), pair

    @staticmethod
    def _seeded_degenerate_sets():
        """Per seed: 12 points of the 4x4 grid, 10 of the 3x3x3 grid, and 8
        planar points with 3 of them repeated."""
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            yield point_set(rng.sample(list(product(range(4), repeat=2)), 12))
            yield point_set(rng.sample(list(product(range(3), repeat=3)), 10))
            base = rng.sample(list(product(range(-5, 6), repeat=2)), 8)
            yield point_set(base + [base[i] for i in rng.sample(range(8), 3)])

    def test_weak_planes_of_seeded_sets(self):
        # one SHA-256 over the weak certificate (or None) of every pair: 162
        # weak face LPs on sets with collinear, coplanar and repeated points,
        # so a change of pivot order in the simplex shows here and not only
        # in a benchmark digest
        planes = []
        for ps in self._seeded_degenerate_sets():
            for pair in combinations(range(ps.n), 2):
                cert = face_certificate(ps, pair, strict=False)
                planes.append(cert and (cert.hyperplane.normal, cert.hyperplane.offset))
        assert len(planes) == 498 and sum(p is not None for p in planes) == 162
        assert hashlib.sha256(repr(planes).encode()).hexdigest() == \
            "53b2a26f45a49e5ceeb703f3338135074c5f5932ea942db2e6873480e83f7b1f"

    def test_strict_faces(self):
        assert _ints(lp_face(self.SPACE4, (0,))) == ((-8, -8, 0, -3), -60)
        assert _ints(lp_face(self.SPACE4, (0, 1))) == ((-8, -8, -8, 5), -36)

    def test_strict_faces_of_a_flat_set(self):
        plane = TestHullFacets.DEGENERATE["plane-in-3d"]
        assert _ints(lp_face(plane, (1,))) == ((0, 1, -1), -3)
        assert _ints(lp_face(plane, (0, 1))) == ((1, 1, -1), -1)

    def test_hull_strict_faces(self, monkeypatch):
        monkeypatch.setattr(facelab, "maximize", _no_lp)
        plane = TestHullFacets.DEGENERATE["plane-in-3d"]
        pinned = [
            (self.SPACE4, (0,), ((9, -98, -175, 24), -239)),
            (self.SPACE4, (0, 1), ((5, -94, -174, 34), -206)),
            (plane, (1,), ((-1, 2, 0), -2)),
            (plane, (0, 1), ((0, 1, 0), 0)),
            (self.RATIONAL, (1,), ((-46314, -36948, 5164), -174415)),
            (self.RATIONAL, (3,), ((24400, -234390, -128658), -1337813)),
            (self.RATIONAL, (2, 3), ((3955, -13760, -6513), -65471)),
            (self.RATIONAL, (1, 5), ((-46810, 13500, -11271), -159335)),
            (self.RATIONAL, (0, 1, 7), ((-24, 252, 235), 0)),
            (self.RATIONAL, (6,), None),
        ]
        for ps, subset, answer in pinned:
            cert = face_certificate(ps, subset)
            assert (cert and _ints(cert.hyperplane)) == answer, subset

    @pytest.mark.parametrize("name", ["GRID", "SPACE", "SPACE4", "RATIONAL"])
    def test_strict_existence_agrees_with_oracle(self, name):
        ps = getattr(self, name)
        for size in (1, 2, 3):
            for subset in combinations(range(ps.n), size):
                assert (face_certificate(ps, subset) is None) == \
                    (lp_face(ps, subset) is None), subset

    def test_separation(self):
        h = separation_hyperplane(self.SPACE, (2, 3, 4))
        assert _ints(h) == ((-2, 2, 2), 7)

    def test_weak_separation(self):
        q = point_set([self.SPACE.points[3]])
        r = point_set([self.SPACE.points[i] for i in (0, 1, 2, 4, 5, 6)])
        assert _ints(weak_separation(q, r)) == ((7, 1, -7), -17)

    # denominators 1-5: each point's LP rows are scaled by its own lcm D_j
    RATIONAL = point_set([(0, 0, 0), (F(7, 2), F(1, 3), 0), (F(1, 5), F(9, 2), F(2, 3)),
                          (F(5, 2), F(12, 5), F(13, 2)), (F(-7, 4), F(10, 3), F(4, 5)),
                          (F(9, 5), F(-5, 2), F(11, 3)), (1, F(3, 4), F(6, 5)),
                          (F(4, 3), F(1, 2), F(-2, 5))])

    def test_faces_of_a_rational_set(self):
        pinned = {
            ((1,), True): ((-19188, 1029, 2961), -66815),
            ((1,), False): ((-2, 0, 0), -7),
            ((3,), True): ((-175, -115, -175), -1851),
            ((3,), False): ((-62, -30, 0), -227),
            ((2, 3), True): ((-38360, -64930, -8250), -305357),
            ((2, 3), False): ((-350, -350, 12), -1637),
            ((1, 5), True): ((-143190, 86442, 408), -472351),
            ((1, 5), False): ((-46790, 13290, -11424), -159335),
            ((0, 1, 7), True): ((-24, 252, 235), 0),
            ((6,), True): None,
            ((6,), False): None,
        }
        for (subset, strict), answer in pinned.items():
            assert _ints(lp_face(self.RATIONAL, subset, strict)) == answer, (subset, strict)
            if not strict:
                cert = face_certificate(self.RATIONAL, subset, strict)
                assert (cert and _ints(cert.hyperplane)) == answer, subset

    def test_separation_of_a_rational_set(self):
        pinned = {(0, 1): ((7320, -76860, -57540), -2827),
                  (2, 3, 4): ((-7000, 7000, 5280), 19103),
                  (1, 5, 7): ((1995, -1052, -1005), 1268),
                  (6,): None}
        for subset, answer in pinned.items():
            assert _ints(separation_hyperplane(self.RATIONAL, subset)) == answer, subset

    def test_weak_separation_of_a_rational_set(self):
        pinned = {(3,): ((3420, -3420, -3110), -19873),
                  (0, 1): ((-375, 2524, 1905), 0),
                  (2, 5): None}
        for part, answer in pinned.items():
            q = point_set([self.RATIONAL.points[i] for i in part])
            r = point_set([pt for j, pt in enumerate(self.RATIONAL.points) if j not in part])
            assert _ints(weak_separation(q, r)) == answer, part

    def test_lp_rows_are_plain_ints(self, monkeypatch):
        def int_only(objective, rows):
            assert all(type(c) is int for c in objective)
            for coeffs, rhs in rows:
                assert type(rhs) is int and all(type(c) is int for c in coeffs)
            calls.append(len(rows))
            return maximize(objective, rows)

        calls = []
        monkeypatch.setattr(facelab, "maximize", int_only)
        monkeypatch.setattr(lp_oracle, "maximize", int_only)
        ps = self.RATIONAL
        assert face_certificate(ps, (2, 3), strict=False) is not None
        for strict in (True, False):
            assert lp_face(ps, (2, 3), strict) is not None
        assert separation_hyperplane(ps, (0, 1)) is not None
        assert weak_separation(point_set([ps.points[3]]),
                               point_set(ps.points[:3] + ps.points[4:])) is not None
        assert len(calls) >= 5


def _lp_weakly(ps, k):
    """``is_weakly_k_neighborly`` as the LP loop it was before the hull facets."""
    for subset in combinations(range(ps.n), k):
        if lp_face(ps, subset, strict=False) is None:
            return False, subset
    return True, None


class LPSolved(Exception):
    pass


def _no_lp(*args):
    raise LPSolved


def _zero_optimum(objective, rows):
    return 0, [0] * len(objective)


class TestHullFacets:
    """Every face answer comes from the hull facets; the oracle margin LP
    stays the reference it must agree with."""

    DEGENERATE = {
        "grid4x4": point_set(list(product(range(4), repeat=2))),
        # the whole 3x3x3 grid takes about 20 s; two 12-point samples of it
        **{f"grid3x3x3-{seed}": point_set(random.Random(seed).sample(
            list(product(range(3), repeat=3)), 12)) for seed in range(2)},
        "repeated": point_set([(0, 0), (3, 1), (-2, 4), (1, 1), (3, 1), (0, 0), (2, -3),
                               (-2, 4), (1, -1)]),
        "collinear": point_set([(t, 2 * t - 1) for t in (3, 0, 5, 1, 2, 4)]),
        "plane-in-3d": point_set([(x, y, x - 2 * y + 1) for x, y in
                                  ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 3), (3, 1))]),
        "line": point_set([(3,), (1,), (3,), (0,), (2,)]),
        "two-in-3d": point_set([(0, 0, 0), (1, 2, 3)]),
        "identical": point_set([(2, -1)] * 4),
    }
    FLAT = ("collinear", "plane-in-3d", "line", "two-in-3d", "identical")

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_agrees_with_lp(self, name):
        ps = self.DEGENERATE[name]
        for size in range(1, min(3, ps.n) + 1):
            for subset in combinations(range(ps.n), size):
                for strict in (False, True) if size < ps.n else (False,):
                    expected = lp_face(ps, subset, strict) is None
                    assert (face_certificate(ps, subset, strict) is None) == expected, \
                        (subset, strict)

    @pytest.mark.parametrize("k", [2, 3])
    def test_weakly_agrees_with_lp_loop(self, k):
        for seed in range(10):
            ps = random_point_set(2 * k + 1, 2 * k - 1, seed)
            assert is_weakly_k_neighborly(ps, k) == _lp_weakly(ps, k), seed

    @given(flat_sets())
    @settings(max_examples=40, deadline=None)
    def test_flat_strict_agrees_with_lp(self, ps):
        for size in range(1, min(3, ps.n - 1) + 1):
            for subset in combinations(range(ps.n), size):
                assert (face_certificate(ps, subset) is None) == \
                    (lp_face(ps, subset) is None), subset

    def test_lp_none_on_a_face_raises(self, monkeypatch):
        monkeypatch.setattr(facelab, "maximize", _zero_optimum)
        plane = self.DEGENERATE["plane-in-3d"]
        for ps, subset in ((SQUARE, (0,)), (plane, (0, 3))):
            with pytest.raises(RuntimeError, match="face LP disagrees with the hull facets"):
                face_certificate(ps, subset, strict=False)

    def test_no_answer_solves_no_lp(self, monkeypatch):
        grid = TestPinnedLPAnswers.GRID
        weak_faces = {pair for pair in combinations(range(9), 2)
                      if face_certificate(grid, pair, strict=False)}
        flat_no = [(name, subset) for name in self.FLAT
                   for size in range(1, min(3, self.DEGENERATE[name].n - 1) + 1)
                   for subset in combinations(range(self.DEGENERATE[name].n), size)
                   if lp_face(self.DEGENERATE[name], subset) is None]
        curve = moment_curve(4).apply(point_set([(t,) for t in range(1, 7)]))
        monkeypatch.setattr(facelab, "maximize", _no_lp)
        assert is_weakly_k_neighborly(curve, 2) == (True, None)
        assert not is_weakly_k_neighborly(random_point_set(7, 5, seed=0), 3)[0]
        # no pair of the 3x3 grid is a strict face: each edge holds three points
        for pair in combinations(range(9), 2):
            assert face_certificate(grid, pair, strict=True) is None
            if pair not in weak_faces:
                assert face_certificate(grid, pair, strict=False) is None
        for name, subset in flat_no:
            assert face_certificate(self.DEGENERATE[name], subset) is None, (name, subset)
        # a square in a plane of 3-space: vertices and edges yes, diagonals no
        flat_square = point_set([(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1)])
        assert neighborliness_degree(flat_square, 2) == 1
        assert neighborliness_degree(self.DEGENERATE["identical"], 2) == 0

    def test_projection_solves_no_lp(self, monkeypatch):
        ps = convex_position_set(6, 3, seed=0)
        monkeypatch.setattr(facelab, "maximize", _no_lp)
        planes = census(ps)[2]
        for v in range(ps.n):
            assert stereographic_project(ps, v, planes[v]).n == ps.n - 1


def _rational_flat(dim, rank, seed):
    """7 points with denominators 1 to 3 on a rank-dimensional affine
    subspace of dim-space, one of them drawn twice."""
    rng = random.Random(seed)

    def rat():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    origin = [rat() for _ in range(dim)]
    dirs = [[rat() for _ in range(dim)] for _ in range(rank)]
    # one draw of the coefficients per point, shared by every axis
    pts = [[o + sum(c * v[axis] for c, v in zip(cs, dirs)) for axis, o in enumerate(origin)]
           for cs in ([rng.randint(-2, 2) for _ in dirs] for _ in range(6))]
    return point_set(pts + [pts[seed % 6]])


def _facets_holding(ps, subset):
    """How many facets of the hull of ps hold the subset."""
    chosen = sum(1 << i for i in subset)
    return sum(on & chosen == chosen for on, _ in ps.hull.facets)


class TestOneHullPerSet:
    """Each point set walks its planes once, however many face questions it
    answers, and each weak certificate solves at most one LP."""

    @staticmethod
    def _count_walks(monkeypatch):
        # the packed walk descends its prefixes on its own stack, so each
        # call is one whole walk
        sizes = []
        walk = geometry._packed_walk

        def counted(ys, *rest):
            sizes.append(len(ys))
            return walk(ys, *rest)

        monkeypatch.setattr(geometry, "_packed_walk", counted)
        return sizes

    @pytest.mark.parametrize("flat", [False, True])
    def test_grid_faces_walk_once(self, monkeypatch, flat):
        pts = [(x, y, 1 - x + y) if flat else (x, y) for x, y in product(range(3), repeat=2)]
        ps = point_set(pts)
        walks = self._count_walks(monkeypatch)
        weak = [face_certificate(ps, pair, strict=False) for pair in combinations(range(9), 2)]
        strict = [face_certificate(ps, (v,)) for v in range(9)]
        # the plane holding a flat set is a weak certificate for every pair
        assert sum(c is not None for c in weak) == (36 if flat else 12)
        assert [v for v in range(9) if strict[v]] == [0, 2, 6, 8]
        # and a flat set walks its chart once more
        assert walks == ([9, 9] if flat else [9])

    @pytest.mark.parametrize("n", [2, 6])
    def test_fewer_points_than_columns_pack_only_their_chart(self, monkeypatch, n):
        # n <= dim points leave no point off a plane through dim of them, so
        # the hull packs their chart's n columns and never the 7 lifted ones
        ps = moment_curve(6).apply(point_set([(t,) for t in range(-3, n - 3)]))
        widths, packing = [], geometry._packing

        def counted(ys, count):
            widths.append(len(ys[0]))
            return packing(ys, count)

        monkeypatch.setattr(geometry, "_packing", counted)
        full = (1 << n) - 1
        assert [on for on, _ in ps.hull.facets] == [full ^ 1 << j for j in reversed(range(n))]
        assert widths == [n]
        cert = face_certificate(ps, (0,))
        assert cert is not None and cert.validate(ps, (0,))

    def test_weak_neighborliness_walks_once(self, monkeypatch):
        ps = moment_curve(4).apply(point_set([(t,) for t in range(1, 8)]))
        walks = self._count_walks(monkeypatch)
        assert is_weakly_k_neighborly(ps, 2) == (True, None)
        assert walks == [7]

    def test_projection_from_every_vertex_walks_once(self, monkeypatch):
        # the census's own walk, of the 9 points and the 4 axis rows, hands
        # every vertex its plane: the hull is never walked
        ps = convex_position_set(9, 4, seed=0)
        walks = self._count_walks(monkeypatch)
        monkeypatch.setattr(facets, "_packed_walk", geometry._packed_walk)
        planes = census(ps)[2]
        for v in range(ps.n):
            assert stereographic_project(ps, v, planes[v]).n == 8
        assert walks == [13]

    LP_SETS = {
        "grid": point_set(list(product(range(3), repeat=2))),
        "repeated": TestHullFacets.DEGENERATE["repeated"],
        **{f"flat-{dim}-{rank}": _rational_flat(dim, rank, dim + rank)
           for dim in range(1, 5) for rank in range(dim)},
        **{f"random-{seed}": random_point_set(7, 3, seed) for seed in range(2)},
        "rational": TestPinnedLPAnswers.RATIONAL,
    }

    @pytest.mark.parametrize("name", LP_SETS)
    def test_one_lp_per_weak_certificate(self, monkeypatch, name):
        ps = self.LP_SETS[name]
        solves = []

        def counted(objective, rows):
            solves.append(objective)
            return maximize(objective, rows)

        monkeypatch.setattr(facelab, "maximize", counted)
        for size in (1, 2):
            for subset in combinations(range(ps.n), size):
                before = len(solves)
                cert = face_certificate(ps, subset, strict=False)
                expected = lp_face(ps, subset, strict=False)
                assert (cert and _ints(cert.hyperplane)) == _ints(expected), subset
                # the plane of the one facet holding a subset of a full hull
                # is the LP's forced optimum, so only the rest solve it
                assert len(solves) - before == (cert is not None and bool(
                    ps.hull.lineality or _facets_holding(ps, subset) > 1)), subset


def _seeded_weak_sets(dim, seed):
    """Three sets in dim: 9 points of the 3-grid, 7 small integer points
    with 2 of them drawn again, and 8 points with denominators 1 to 3."""
    rng = random.Random(100 * dim + seed)
    yield point_set(rng.sample(list(product(range(3), repeat=dim)), 9))
    base = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(7)]
    yield point_set(base + [base[i] for i in rng.sample(range(7), 2)])
    yield point_set([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                     for _ in range(8)])


def _held_by_one_facet(ps):
    """The subsets of size 1 to dim that exactly one facet of the full
    hull of ps holds; none if ps is flat."""
    if ps.hull.lineality:
        return []
    return [subset for size in range(1, ps.dim + 1)
            for subset in combinations(range(ps.n), size)
            if _facets_holding(ps, subset) == 1]


class TestWeakFacetPlanes:
    """One facet holding a subset of a full hull is its only supporting
    plane, so the weak certificate read off the hull is the one both the
    oracle margin LP and the engine's weak face LP find."""

    SETS = [ps for dim in (2, 3, 4) for seed in range(2) for ps in _seeded_weak_sets(dim, seed)]

    @staticmethod
    def _agree(ps):
        held = _held_by_one_facet(ps)
        for subset in held:
            cert = face_certificate(ps, subset, strict=False)
            lp = facelab._lp_face(ps, subset, facelab._weak_objective(ps, subset))
            assert cert.hyperplane == lp_face(ps, subset, strict=False) == lp, subset
        return len(held)

    @pytest.mark.parametrize("index", range(len(SETS)))
    def test_weak_planes_equal_both_lps(self, index):
        assert self._agree(self.SETS[index]) > 0

    @given(st.integers(2, 4).flatmap(walk_sets))
    @settings(max_examples=60, deadline=None)
    def test_weak_planes_equal_both_lps_on_drawn_sets(self, ps):
        self._agree(ps)

    def test_one_facet_solves_no_lp(self, monkeypatch):
        monkeypatch.setattr(facelab, "maximize", _no_lp)
        for ps in self.SETS:
            for subset in _held_by_one_facet(ps):
                assert face_certificate(ps, subset, strict=False).validate(ps, subset)
        # and the patch is live: a vertex of the square lies in two edges
        with pytest.raises(LPSolved):
            face_certificate(SQUARE, (0,), strict=False)


def _calls(name):
    """(module, innermost enclosing function) of every call to ``name`` in
    the kfacets sources, a constructor named with its class ("Hull.__init__")."""
    found = set()

    def visit(node, module, func, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, func, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                init = cls and child.name == "__init__"
                visit(child, module, f"{cls}.__init__" if init else child.name)
                continue
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if callee == name:
                    found.add((module, func))
            visit(child, module, func)

    for path in sorted(Path(facelab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_lp_solved_only_by_the_weak_face_lp():
    assert _calls("maximize") == {("facelab", "_lp_face")}
    # the objective is chosen only for a certificate, never for a yes/no answer
    assert _calls("_lp_face") == _calls("_weak_objective") == {("facelab", "face_certificate")}
    # and its tableau is the condensed one: no width sums nv and m, and no
    # row is padded by a length that grows with m, so no slack column is
    # stored
    tree = ast.parse(Path(simplex.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if isinstance(node.op, ast.Add):
                assert not {"nv", "m"} <= names, ast.unparse(node)
            if isinstance(node.op, ast.Mult) and isinstance(node.left, ast.List):
                assert "m" not in names, ast.unparse(node)


def test_one_packed_walk_behind_every_sweep():
    # the GLP check, the hull and both counting engines share one walk,
    # and no second walk sits beside it
    assert _calls("_packed_walk") == {("geometry", "is_general_linear_position"),
                                      ("geometry", "_walk"),
                                      ("facets", "_sweep"), ("facets", "_separable")}
    assert not hasattr(geometry, "_prefix_walk") and not _calls("_prefix_walk")
    # and the sweep hands that walk to its readers, with no generator of its own
    tree = ast.parse(Path(facets.__file__).read_text())
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_sweep")
    assert not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(sweep))


def test_kernels_solved_only_off_the_walk():
    # a walked hull's facet normals, a flat hull's lineality and the Radon
    # dependence; the census reads its hull's normals off its own walk
    assert _calls("_nullspace") == {("geometry", "Hull.__init__"), ("geometry", "inward"),
                                    ("facelab", "radon_partition")}


def test_no_object_is_built_or_filled_from_outside():
    # a Hull is only ever a walked one, and no cached property is written
    # into an instance's dict behind its class
    assert _calls("vars") == _calls("__new__") == set()
    # the kept-facets rule is written once, the package's only in-place &,
    # and both strict vertex planes, face_certificate's and the census's,
    # keep their facets by it and sum them one way
    shrinks = []
    for path in sorted(Path(facelab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                shrinks += [(path.stem, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd)]
    assert shrinks == [("facelab", "_kept_facets")]
    assert _calls("_kept_facets") == {("facelab", "face_certificate"),
                                      ("facelab", "neighborliness_degree"),
                                      ("projection", "census")}
    assert _calls("_strict_plane") == {("facelab", "face_certificate"), ("projection", "census")}


def test_veronese_certifier_pivots_in_the_packed_walk():
    # one elimination loop, shared by the walk and the certifier, and no
    # fresh kernel per subset
    assert _calls("_pivot") == {("geometry", "_packed_walk"), ("facelab", "certify")}
    tree = ast.parse(Path(facelab.__file__).read_text())
    certifier = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and node.name == "veronese_certifier")
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(certifier) if isinstance(n, ast.Call)}
    assert not called & {"_nullspace", "_gauss_jordan"}


def test_k_sets_kept_as_masks():
    # the k-set recursion finds each set once per vertex of its cell, so it
    # unions bitmask ints and builds no sorted tuple per union
    assert ("facets", "_separable") not in _calls("sorted")


def test_int_rows_read_only_by_the_integer_forms():
    # every other path reads a point through its homogeneous row ps.rows
    assert _calls("_int_rows") == {("geometry", "point_set"), ("geometry", "Hyperplane.__init__")}


def test_lifts_projections_and_certificates_build_no_fraction():
    # a point set, its lifts and images are integer rows, certificates are
    # integer planes and a Radon witness is an integer dependence: a Fraction
    # is only parsed, read off a row or printed in a witness
    assert _calls("Fraction") == {("geometry", "rational"), ("geometry", "points"),
                                  ("serialize", "radon_to_json")}


class TestPrimitivePlanes:
    """Every certificate is its plane's coprime integer form."""

    @staticmethod
    def assert_primitive(cert):
        h = cert.hyperplane
        assert all(type(c) is int for c in (*h.normal, h.offset))
        assert gcd(*h.normal, h.offset) == 1

    @pytest.mark.parametrize("name", ["grid", "repeated", "rational"])
    def test_face_certificates(self, name):
        ps = TestOneHullPerSet.LP_SETS[name]
        found = 0
        for size in (1, 2):
            for subset in combinations(range(ps.n), size):
                for strict in (True, False):
                    cert = face_certificate(ps, subset, strict=strict)
                    if cert is not None:
                        self.assert_primitive(cert)
                        found += 1
        assert found

    def test_constructive_certificates(self):
        src = point_set([("1/2", "3"), ("-2/3", "1/5"), ("5/4", "0"), ("3", "-1/2")])
        certify = veronese_certifier(src, 4)
        for pair in combinations(range(src.n), 2):
            self.assert_primitive(certify(pair))
            self.assert_primitive(embedding_face_certificate(src, pair, k=2))

    def test_non_primitive_and_rational_planes_equal_their_primitive_form(self):
        plane = Hyperplane((1, -2), 3)
        assert Hyperplane((4, -8), 12) == plane
        assert Hyperplane((F(2, 3), F(-4, 3)), F(2)) == plane
        assert Hyperplane((-1, 2), -3) != plane  # the orientation stays
        cert = certificate_from_json({"normal": ["2/3", "-4/3"], "offset": "2", "strict": True})
        assert cert.hyperplane == plane
        assert certificate_to_json(cert) == {"normal": ["1", "-2"], "offset": "3", "strict": True}
        assert certificate_from_json(certificate_to_json(cert)) == cert


class TestRecords:
    def test_face_certificate_contract(self):
        assert_record(FaceCertificate, {"hyperplane": Hyperplane((0, 1), 0), "strict": True},
                      "FaceCertificate(hyperplane=Hyperplane(normal=(0, 1), offset=0), "
                      "strict=True)", strict=False)
        assert face_certificate(SQUARE, (0, 1)) == FaceCertificate(Hyperplane((0, 1), 0), True)

    def test_radon_witness_contract(self):
        assert_record(RadonWitness, {"mu": (1, -1, 1, -1)}, "RadonWitness(mu=(1, -1, 1, -1))",
                      mu=(-1, 1, -1, 1))
        w = RadonWitness(mu=(1, -1, 1, -1))
        assert (w.part_q, w.part_r) == ((0, 2), (1, 3)) and w.validate(SQUARE)
