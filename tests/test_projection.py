from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_oracle, projection_oracle, save_point_set, through_vertex_oracle
from kfacets import cli, facelab, facets, geometry
from kfacets.errors import DegeneracyError, InputError
from kfacets.facelab import face_certificate
from kfacets.facets import k_facet_profile
from kfacets.genpos import convex_position_set, random_point_set
from kfacets.geometry import Hyperplane, PointSet, is_general_linear_position, point_set
from kfacets.liftmaps import circle_map, moment_curve, veronese
from kfacets.projection import census, stereographic_project


FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 7)))


@st.composite
def rational_vertex_sets(draw):
    """Points with mixed small denominators in dim 2 or 3, or their lift
    by the circle, quadratic Veronese or cubic moment map."""
    lift = draw(st.sampled_from((None, circle_map(), veronese(2, 2), moment_curve(3))))
    dim = lift.source_dim if lift else draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[FRACTIONS] * dim), min_size=2, max_size=6))
    return lift.apply(point_set(pts)) if lift else point_set(pts)


@given(rational_vertex_sets())
@settings(max_examples=80, deadline=None)
def test_row_born_images_match_fraction_oracle(ps):
    for v in range(ps.n):
        cert = face_certificate(ps, (v,))
        if cert is None:
            continue
        img = stereographic_project(ps, v, cert.hyperplane)
        assert img.points == projection_oracle(ps, v, cert.hyperplane)
        assert img.rows == point_set(img.points).rows


def _project(ps, v):
    """The image of ps from its point v, on the plane the census hands v."""
    return stereographic_project(ps, v, census(ps)[2][v])


class TestStereographicProject:
    def test_dimension_drops_by_one(self):
        ps = convex_position_set(6, 3, seed=2)
        img = _project(ps, 0)
        assert img.dim == 2 and img.n == 5
        assert is_general_linear_position(img)

    def test_labels_follow_points(self):
        ps = point_set([(0, 0, 3), (4, 0, 0), (0, 4, 0), (-4, -4, 0), (0, 0, -3)],
                       labels=list("abcde"))
        img = _project(ps, 0)
        assert img.labels == ("b", "c", "d", "e")

    def test_interior_point_rejected(self):
        ps = point_set([(0, 0), (3, 0), (0, 3), (1, 1)])
        with pytest.raises(InputError, match="point 3 is not a vertex"):
            _project(ps, 3)

    def test_vertex_out_of_range(self):
        ps = convex_position_set(5, 3, seed=0)
        with pytest.raises(InputError):
            stereographic_project(ps, 9, None)

    def test_plane_checked_by_substitution(self):
        # another vertex's plane does not pass through v: exit 3, not a bad input
        ps = convex_position_set(6, 3, seed=2)
        planes = census(ps)[2]
        with pytest.raises(RuntimeError, match="vertex plane failed substitution"):
            stereographic_project(ps, 0, planes[1])


class TestFacetBijection:
    def test_counts_transfer_for_cyclic_polytope(self):
        ps = moment_curve(3).apply(point_set([(t,) for t in (1, 2, 3, 5, 8, 13)]))
        _, table, planes = census(ps)
        for v in range(ps.n):
            img_prof = k_facet_profile(stereographic_project(ps, v, planes[v]))
            for k in range(ps.n - 3 + 1):
                assert table[v][k] == img_prof.e[k]

    def test_counts_transfer_for_rational_parameters(self):
        ps = moment_curve(3).apply(point_set(
            [(t,) for t in ("-3/2", "-1/3", "1/4", "2/5", "1", "7/3", "4")]))
        _, table, planes = census(ps)
        assert table[3] == (4, 8, 6, 8, 4)
        for v in range(ps.n):
            assert k_facet_profile(stereographic_project(ps, v, planes[v])).e == table[v]

    def test_vertex_sums_recover_profile(self):
        # every p-subset hits p vertices, so summing per-vertex counts
        # over all v triples each e_k
        ps = convex_position_set(6, 3, seed=4)
        prof, table = k_facet_profile(ps), census(ps)[1]
        for k in range(len(prof.e)):
            total = sum(table[v][k] for v in range(ps.n))
            assert total == 3 * prof.e[k]


class TestFacetsThroughVertex:
    def test_square_counts(self):
        ps = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
        # vertex 0 meets both diagonals' lines: (0,1),(0,2),(0,3); level-1
        # facets through 0 are the two orientations of the diagonal (0, 2)
        assert census(ps)[1][0][:2] == (2, 2)

    def test_all_levels_sum_to_incident_pairs(self):
        ps = convex_position_set(7, 3, seed=6)
        per_vertex = sum(census(ps)[1][2])
        # each of the C(6,2) spanning triples through vertex 2, twice oriented
        assert per_vertex == 2 * 15

    @given(st.sampled_from((random_point_set, convex_position_set)),
           st.integers(2, 4), st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_table_matches_oracle(self, build, dim, seed):
        ps = build(dim + 3, dim, seed=seed)
        profile, table, _ = census(ps)
        assert profile.e == profile_oracle(ps)
        assert table == through_vertex_oracle(ps)

    def test_degenerate_input_raises(self):
        ps = point_set([(0, 0), (1, 0), (2, 0), (1, 2)])
        with pytest.raises(DegeneracyError):
            census(ps)

    def test_bad_arguments_rejected(self, monkeypatch, capsys, tmp_path):
        # kfacets project checks the vertex, k and dim before the census sweeps
        path, line = tmp_path / "set.json", tmp_path / "line.json"
        save_point_set(convex_position_set(5, 2, seed=1), path)
        save_point_set(point_set([(1,), (1,), (3,)]), line)
        walks = _count_walks(monkeypatch)
        for src, v, k, message in ((path, 5, 0, "vertex index 5 out of range"),
                                   (path, -1, 0, "vertex index -1 out of range"),
                                   (path, 0, 4, "k must be in 0..3, got 4"),
                                   (path, 0, -1, "k must be in 0..3, got -1"),
                                   (line, 0, 0, "projection needs dim >= 2, got 1")):
            assert cli.main(["project", "--in", str(src), "--vertex", str(v),
                             "--k", str(k)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert walks == []


class TestCensusPlanes:
    """The census builds each vertex's strict plane from the inward
    functionals it reads off its own walk; ``face_certificate`` on a fresh
    twin of the set, whose walked hull solves a kernel per facet
    (``Hull.inward``), is the oracle: the same plane, and None for the same
    points."""

    @staticmethod
    def assert_planes_match(ps):
        planes = census(ps)[2]
        if ps.n > ps.dim:
            # the census reads no hull of its own set
            assert "hull" not in vars(ps)
        twin = PointSet(ps.dim, ps.rows)
        certs = [face_certificate(twin, (v,)) for v in range(ps.n)]
        assert planes == tuple(cert and cert.hyperplane for cert in certs)

    @given(st.sampled_from((random_point_set, convex_position_set)),
           st.integers(2, 5), st.integers(1, 5), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_generated_sets(self, build, dim, extra, seed):
        self.assert_planes_match(build(dim + extra, dim, seed=seed))

    @given(st.integers(2, 5), st.lists(FRACTIONS, min_size=6, max_size=9, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_rational_moment_curves(self, dim, params):
        # weights D_j = den(t_j)^dim, so each offset divides by a D > 1
        self.assert_planes_match(moment_curve(dim).apply(point_set([(t,) for t in params])))

    def test_mixed_denominators(self):
        ps = point_set([("1/2", "0", "1/3"), ("2", "-1/4", "0"), ("0", "3/5", "1"),
                        ("-1", "1", "-2/3"), ("1/3", "1/2", "1/4"), ("3/7", "-2", "5/6"),
                        ("-5/3", "-1/2", "2")])
        self.assert_planes_match(ps)
        assert census(ps)[2][0] is None

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_coordinates_near_two_to_the_200(self, dim):
        # affine images keep the hull: coordinates +-2^200 plus a small part
        # (small normals, offsets near 2^200), and 2^200 times a small part
        # +-1 (normals near 2^(200 (dim - 1))), each field hundreds of bits
        big = 2 ** 200
        for base in (random_point_set(dim + 3, dim, 1), convex_position_set(dim + 3, dim, 1)):
            for scale, shift in ((1, big), (big, 1)):
                self.assert_planes_match(point_set(
                    [[scale * x + (-1) ** i * shift for i, x in enumerate(pt)]
                     for pt in base.points]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_interior_points(self, dim):
        # many points in few dimensions leave some inside the hull
        for seed in range(4):
            ps = random_point_set(3 * dim + 6, dim, seed)
            self.assert_planes_match(ps)
        assert None in census(ps)[2]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_p_points(self, dim):
        # one plane holds all p points: the flat hull's planes, and one
        # point on a line keeps the plane through it
        for seed in range(3):
            ps = random_point_set(dim, dim, seed)
            if dim == 1:
                assert census(ps)[2] == (Hyperplane((1,), ps.points[0][0]),)
            else:
                self.assert_planes_match(ps)

    def test_projection_solves_no_kernel(self, monkeypatch, capsys, tmp_path):
        # the vertex planes come from the census's functionals
        def refuse(*args):
            raise AssertionError("_nullspace called")

        ps = convex_position_set(8, 3, seed=5)
        path = tmp_path / "set.json"
        save_point_set(ps, path)
        monkeypatch.setattr(geometry, "_nullspace", refuse)
        monkeypatch.setattr(facelab, "_nullspace", refuse)
        for seed in range(3):
            assert cli.run_verifier("projection", seed, n=9, d=4)["pass"] is True
        _, table, planes = census(ps)
        for v in range(8):
            assert k_facet_profile(stereographic_project(ps, v, planes[v])).e == table[v]
            assert cli.main(["project", "--in", str(path), "--vertex", str(v), "--k", "2"]) == 0
            assert '"pass": true' in capsys.readouterr().out


def _count_walks(monkeypatch):
    """Wrap ``_packed_walk`` at both its bindings; returns the list of the
    rows each walk is given, in call order."""
    walks, walk = [], geometry._packed_walk

    def counted(ys, *args):
        walks.append(tuple(ys))
        return walk(ys, *args)

    monkeypatch.setattr(geometry, "_packed_walk", counted)
    monkeypatch.setattr(facets, "_packed_walk", counted)
    return walks


def _census_rows(ps):
    """The rows the census walks: the points', then the axis directions
    (e_i, 0), last axis first, whose values are each plane's normal."""
    return ps.rows + tuple(tuple(int(a == b) for b in range(ps.dim + 1))
                           for a in reversed(range(ps.dim)))


class TestWalkCounts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verify_walks_the_source_once_after_generation(self, monkeypatch, seed):
        source = convex_position_set(9, 4, seed)
        walks = _count_walks(monkeypatch)
        generate = cli.genpos.convex_position_set

        def generated(*args):
            ps = generate(*args)
            walks.append("generated")
            return ps

        monkeypatch.setattr(cli.genpos, "convex_position_set", generated)
        assert cli.run_verifier("projection", seed, n=9, d=4)["pass"] is True
        source_walk, *images = walks[walks.index("generated") + 1:]
        assert source_walk[:source.n] == source.rows
        assert source_walk == _census_rows(source)
        # one walk of each image: n distinct sets in dim d - 1
        assert len(images) == len(set(images)) == source.n
        assert all(len(row) == source.dim for ys in images for row in ys)

    def test_project_walks_its_input_once(self, monkeypatch, capsys, tmp_path):
        ps = convex_position_set(8, 3, seed=5)
        path = tmp_path / "set.json"
        save_point_set(ps, path)
        walks = _count_walks(monkeypatch)
        assert cli.main(["project", "--in", str(path), "--vertex", "2", "--k", "1"]) == 0
        assert '"pass": true' in capsys.readouterr().out
        assert len(walks) == 2 and walks[0][:ps.n] == ps.rows and walks[1] != ps.rows
        assert walks[0] == _census_rows(ps)
