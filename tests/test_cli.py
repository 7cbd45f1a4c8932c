import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lp_oracle
from conftest import k_sets_oracle, save_point_set
from kfacets import cli, facelab, facets, formulas, genpos, projection
from kfacets.cli import main, run_verifier
from kfacets.errors import InputError
from kfacets.facets import k_facet_profile, k_set_counts
from kfacets.genpos import convex_position_set, map_generic_set, random_point_set
from kfacets.geometry import Hyperplane, point_set
from kfacets.liftmaps import circle_map, homogeneous_veronese, veronese
from kfacets.serialize import dumps, load_point_set, point_set_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_point_set(point_set([(0, 0), (1, 0), (1, 1), (0, 1)]), path)
    return str(path)


class TestGen:
    def test_deterministic_json(self, capsys):
        code, out1, _ = run(capsys, "gen", "--n", "5", "--d", "2", "--seed", "1")
        code2, out2, _ = run(capsys, "gen", "--n", "5", "--d", "2", "--seed", "1")
        assert code == code2 == 0 and out1 == out2
        obj = json.loads(out1)
        assert obj["dim"] == 2 and len(obj["points"]) == 5

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "gen", "--n", "6", "--d", "2", "--seed", "4",
                         "--out", str(path))
        assert code == 0
        assert load_point_set(path).n == 6

    def test_modes(self, capsys):
        for mode in ("glp", "conic", "convex", "distinct-x1"):
            code, out, _ = run(capsys, "gen", "--n", "6", "--d", "2",
                               "--seed", "2", "--mode", mode)
            assert code == 0 and json.loads(out)["dim"] == 2


class TestLiftAndCount:
    def test_lift_circle(self, capsys, square_file):
        code, out, _ = run(capsys, "lift", "--in", square_file, "--map", "circle")
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 3 and obj["points"][2] == ["1", "1", "2"]

    @pytest.mark.parametrize("key,message", [
        ("veronese:0:2", "veronese needs d >= 1"),
        ("embed:0:2", "embedding needs k >= 1"),
        ("moment:0", "moment curve needs d >= 1, got 0"),
    ])
    def test_lift_map_key_keeps_the_builder_message(self, capsys, square_file, key, message):
        code, out, err = run(capsys, "lift", "--in", square_file, "--map", key)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_short_csv_row_names_the_point(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,x2\n0,0\n1\n")
        code, out, err = run(capsys, "count", "--in", str(path))
        assert (code, out, err) == (2, "", "error: point 1 has 1 coordinates, expected 2\n")

    @pytest.mark.parametrize("text,header,width", [
        ("x1,x2\n0,0,0\n1,0,0\n0,1,0\n0,0,1\n", 2, 3),
        ("x1,x2,x3\n0,0\n1,0\n0,1\n", 3, 2),
    ], ids=["wider-rows", "narrower-rows"])
    def test_csv_header_width_must_match_the_rows(self, capsys, tmp_path, text, header, width):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        code, out, err = run(capsys, "count", "--in", str(path))
        assert (code, out, err) == (
            2, "", f"error: CSV header declares dim {header} != coordinate width {width}\n")

    def test_count_facets_json(self, capsys, square_file):
        code, out, _ = run(capsys, "count", "--in", square_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["profile"] == [4, 4, 4]

    def test_count_facets_csv(self, capsys, square_file):
        code, out, _ = run(capsys, "count", "--in", square_file, "--csv")
        assert code == 0
        assert out.splitlines()[0] == "k,e_k"

    def test_count_with_k_lists_facets(self, capsys, square_file):
        code, out, _ = run(capsys, "count", "--in", square_file, "--k", "1")
        obj = json.loads(out)
        assert {tuple(f["indices"]) for f in obj["facets"]} == {(0, 2), (1, 3)}

    @pytest.mark.parametrize("n,d,seed,argv,digest", [
        (7, 2, 21, ["--map", "circle", "--k", "2"],
         "c2724b0d9645b0e7dc764e65d9724dd3f138e307bd5116bffa6d4409145439e3"),
        (8, 3, 5, ["--k", "2"], "d8f25c4e1db6c16d609212c9446cc5424fc2bf8f6280ac140ed82d2bf1a26520"),
    ], ids=["circle-lift", "random-3d"])
    def test_count_with_k_output_pinned(self, capsys, tmp_path, n, d, seed, argv, digest):
        path = tmp_path / "pts.json"
        save_point_set(random_point_set(n, d, seed=seed), path)
        code, out, err = run(capsys, "count", "--in", str(path), *argv)
        assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_count_with_k_walks_its_set_once(self, capsys, monkeypatch, tmp_path):
        walk, walks = facets._packed_walk, []

        def counted(*args):
            walks.append(args[1])  # the walk's stop
            return walk(*args)

        monkeypatch.setattr(facets, "_packed_walk", counted)
        path = tmp_path / "pts.json"
        save_point_set(random_point_set(8, 3, seed=5), path)
        code, out, _ = run(capsys, "count", "--in", str(path), "--k", "2")
        assert code == 0 and walks == [8]
        assert json.loads(out)["profile"] == list(k_facet_profile(load_point_set(path)).e)

    def test_count_sets(self, capsys, square_file):
        code, out, _ = run(capsys, "count", "--in", square_file,
                           "--mode", "sets", "--k", "2")
        obj = json.loads(out)
        assert obj["ksets"] == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_count_sets_on_grid(self, capsys, tmp_path):
        grid = point_set([(x, y) for x in range(3) for y in range(3)] + [(1, 1)])
        path = tmp_path / "grid.json"
        save_point_set(grid, path)
        code, out, _ = run(capsys, "count", "--in", str(path), "--mode", "sets", "--k", "3")
        assert code == 0
        assert [tuple(s) for s in json.loads(out)["ksets"]] == list(k_sets_oracle(grid, 3))

    def test_count_sets_without_k_prints_counts(self, capsys, tmp_path):
        grid = point_set([(x, y) for x in range(3) for y in range(3)] + [(1, 1)])
        path = tmp_path / "grid.json"
        save_point_set(grid, path)
        code, out, _ = run(capsys, "count", "--in", str(path), "--mode", "sets")
        assert code == 0
        assert json.loads(out) == {"n": 10, "p": 2, "kset_counts": list(k_set_counts(grid))}

    @pytest.mark.parametrize("k", ["3", "-1"])
    def test_count_refuses_a_bad_k_before_it_sweeps(self, capsys, monkeypatch, square_file, k):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking k")

        monkeypatch.setattr(facets, "_sweep", no_sweep)
        code, out, err = run(capsys, "count", "--in", square_file, "--k", k)
        assert (code, out, err) == (2, "", f"error: k must be in 0..2, got {k}\n")

    def test_count_too_few_points_named_before_k(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        save_point_set(point_set([(0, 0, 0), (1, 2, 3)]), path)
        code, out, err = run(capsys, "count", "--in", str(path), "--k", "0")
        assert (code, out, err) == (2, "", "error: need at least dim = 3 points, got 2\n")

    @pytest.mark.parametrize("argv", [["--k", "1"], ["--mode", "sets", "--k", "2"],
                                      ["--mode", "sets"]])
    def test_count_csv_takes_no_k_and_no_sets(self, capsys, square_file, argv):
        code, out, err = run(capsys, "count", "--in", square_file, "--csv", *argv)
        assert code == 2 and out == ""
        assert err == ("error: --csv prints only the k-facet profile; "
                       "it takes neither --mode sets nor --k\n")

    def test_count_under_lift(self, capsys, tmp_path):
        path = tmp_path / "pts.json"
        save_point_set(random_point_set(7, 2, seed=21), path)
        code, out, _ = run(capsys, "count", "--in", str(path), "--map", "circle")
        assert code == 0
        prof = json.loads(out)["profile"]
        assert prof == [10, 16, 18, 16, 10]


class TestCertify:
    def test_edge_certificate(self, capsys, square_file):
        code, out, _ = run(capsys, "certify", "--in", square_file,
                           "--subset", "0,1")
        obj = json.loads(out)
        assert code == 0 and obj["certificate"] is not None
        assert obj["certificate"]["strict"] is True

    def test_diagonal_has_none(self, capsys, square_file):
        code, out, _ = run(capsys, "certify", "--in", square_file,
                           "--subset", "0,2")
        assert code == 0 and json.loads(out)["certificate"] is None

    def test_weak_flag(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        save_point_set(point_set([(0, 0), (1, 0), (2, 0), (1, 2)]), path)
        code, out, _ = run(capsys, "certify", "--in", str(path),
                           "--subset", "0,2", "--weak")
        assert code == 0 and json.loads(out)["certificate"]["strict"] is False


class TestProjectAndRadon:
    def test_project_pass(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        save_point_set(convex_position_set(6, 3, seed=2), path)
        code, out, _ = run(capsys, "project", "--in", str(path),
                           "--vertex", "0", "--k", "1")
        obj = json.loads(out)
        assert code == 0 and obj["pass"] is True
        assert obj["facets_through_vertex"] == obj["projected_e_k"]

    def test_project_coplanar_input_exit_2(self, capsys, tmp_path):
        # the per-vertex sweep of the input raises before any image is built
        path = tmp_path / "flat.json"
        save_point_set(point_set([(0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 0), (1, 5, 0)]),
                       path)
        code, out, err = run(capsys, "project", "--in", str(path), "--vertex", "0", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: not in general linear position") and err.count("\n") == 1

    def test_project_output_pinned(self, capsys, tmp_path):
        # every vertex and k of a labelled set with weights D > 1, so each
        # facet plane's offset is an exact division by a point's weight;
        # point a is interior
        path = tmp_path / "in.json"
        save_point_set(point_set(
            [("1/2", "0", "1/3"), ("2", "-1/4", "0"), ("0", "3/5", "1"), ("-1", "1", "-2/3"),
             ("1/3", "1/2", "1/4"), ("3/7", "-2", "5/6"), ("-5/3", "-1/2", "2")],
            labels=list("abcdefg")), path)
        through = {1: (5, 5, 10, 5, 5), 2: (4, 7, 8, 7, 4), 3: (5, 6, 8, 6, 5),
                   4: (3, 7, 10, 7, 3), 5: (3, 7, 10, 7, 3), 6: (4, 6, 10, 6, 4)}
        for v in range(7):
            for k in range(5):
                got = run(capsys, "project", "--in", str(path), "--vertex", str(v), "--k", str(k))
                if v == 0:
                    assert got == (2, "", "error: point 0 is not a vertex of the convex hull\n")
                    continue
                expected = {"facets_through_vertex": through[v][k], "k": k, "pass": True,
                            "projected_e_k": through[v][k], "vertex": v}
                assert got == (0, json.dumps(expected, sort_keys=True, indent=2) + "\n", "")

    @pytest.mark.parametrize("points", [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [("1/2", "-3"), ("2/3", "5/4")],
        [(1, 0, 0, 0), (0, "1/3", 0, 0), (0, 0, 2, 0), (0, 0, 0, "-1/2")],
    ], ids=["unit-triangle", "segment", "simplex-r4"])
    def test_project_p_points_in_dim_p(self, capsys, tmp_path, points):
        # one plane holds all p points, so each vertex's plane comes from the
        # flat hull; the image is p - 1 points in dim p - 1, one plane again
        path = tmp_path / "in.json"
        save_point_set(point_set(points), path)
        for v in range(len(points)):
            got = run(capsys, "project", "--in", str(path), "--vertex", str(v), "--k", "0")
            expected = {"facets_through_vertex": 2, "k": 0, "pass": True,
                        "projected_e_k": 2, "vertex": v}
            assert got == (0, json.dumps(expected, sort_keys=True, indent=2) + "\n", "")

    @pytest.mark.parametrize("points,message", [
        ([(0,), (1,), (3,)], "error: projection needs dim >= 2, got 1\n"),
        # refused before the census sweep, which would call it degenerate
        ([(1,), (1,), (3,)], "error: projection needs dim >= 2, got 1\n"),
        ([(0, 0, 0), (1, 2, 3)], "error: need at least dim = 3 points, got 2\n"),
    ], ids=["line", "line-with-repeat", "fewer-than-dim"])
    def test_project_parameter_errors_name_the_input(self, capsys, tmp_path, points, message):
        path = tmp_path / "in.json"
        save_point_set(point_set(points), path)
        code, out, err = run(capsys, "project", "--in", str(path), "--vertex", "0", "--k", "0")
        assert (code, out, err) == (2, "", message)

    def test_radon(self, capsys, tmp_path):
        path = tmp_path / "four.json"
        save_point_set(point_set([(0, 0), (3, 0), (0, 3), (1, 1)]), path)
        code, out, _ = run(capsys, "radon", "--in", str(path))
        obj = json.loads(out)
        assert code == 0
        assert {tuple(sorted(obj["Q"])), tuple(sorted(obj["R"]))} \
            == {(3,), (0, 1, 2)}

    @pytest.mark.parametrize("points,labels,expected", [
        ([(2, 1), (0, 0), (1, 3), (3, 3)], None,
         {"Q": [1, 3], "R": [0, 2], "lambdas": ["2/3", "4/9", "1/3", "5/9"],
          "point": ["5/3", "5/3"]}),
        ([("1/2", "0", "1/3"), ("2", "-1/4", "0"), ("0", "3/5", "1"),
          ("-1", "1", "-2/3"), ("1/3", "1/2", "1/4")], ["a", "b", "c", "d", "e"],
         {"Q": [0, 4], "R": [1, 2, 3],
          "lambdas": ["151/1345", "412/1345", "233/538", "701/2690", "1194/1345"],
          "point": ["947/2690", "597/1345", "2093/8070"]}),
    ], ids=["negative-last-pivot", "mixed-denominators"])
    def test_radon_output_pinned(self, capsys, tmp_path, points, labels, expected):
        path = tmp_path / "in.json"
        save_point_set(point_set(points, labels=labels), path)
        code, out, err = run(capsys, "radon", "--in", str(path))
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("points,named", [
        ([(0, 0), (1, 1), (2, 2), (3, 3)], (0, 1, 2)),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)], (0, 1, 2, 3)),
    ], ids=["collinear-in-2d", "coplanar-in-3d"])
    def test_radon_on_a_hyperplane_names_the_first_dim_plus_one(self, capsys, tmp_path,
                                                                points, named):
        # every point on one hyperplane: the first dim + 1 points are dependent
        path = tmp_path / "flat.json"
        save_point_set(point_set(points), path)
        code, out, err = run(capsys, "radon", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: points are not in general linear position: {named}\n"

    def test_radon_output_digest(self, capsys, tmp_path):
        # the witness of random_point_set(d + 2, d, s), d = 1..8, s = 0..4, byte for byte
        path, digest = tmp_path / "in.json", hashlib.sha256()
        for d in range(1, 9):
            for seed in range(5):
                save_point_set(random_point_set(d + 2, d, seed), path)
                code, out, _ = run(capsys, "radon", "--in", str(path))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == \
            "c7e4134aa5f0e7d91e164d2a6484f06e8880eb2ef6ea385669cea242ffb7fe1b"


class TestFormula:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "formula", "circle", "7", "2")
        assert code == 0 and out.strip() == "18"

    def test_k_range_csv(self, capsys):
        code, out, _ = run(capsys, "formula", "conic", "9",
                           "--k-range", "0:4")
        assert code == 0
        assert out.splitlines() == ["k,value", "0,30", "1,60", "2,72",
                                    "3,60", "4,30"]

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "formula", "nope", "1")
        assert code == 2 and "unknown formula" in err

    def test_bad_arity(self, capsys):
        code, _, err = run(capsys, "formula", "circle", "7")
        assert code == 2


class TestVerify:
    def test_circles_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "circles", "--n", "7", "--seed", "3")
        obj = json.loads(out)
        assert code == 0 and obj["pass"] is True
        assert obj["expected"] == obj["measured"]
        assert obj["measured"]["profile"] == [10, 16, 18, 16, 10]
        assert obj["measured"]["halving"] == 9
        assert "instance" not in obj

    def test_radon_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", "radon", "--d", "3", "--seed", "5")
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_radon_proof_agrees_with_lp(self, d):
        for seed in range(3):
            report = run_verifier("radon", seed=seed, d=d)
            ps = random_point_set(d + 2, d, seed)
            witness = facelab.radon_partition(ps)
            q = point_set([ps.points[i] for i in witness.part_q])
            r = point_set([ps.points[i] for i in witness.part_r])
            assert report["measured"]["weak_separation"] is False
            assert lp_oracle.weak_separation(q, r) is None

    def test_failing_report_carries_the_instance(self, capsys, monkeypatch):
        # a failing verify embeds its drawn set, so the run can be replayed
        conic_count = formulas.conic_count
        monkeypatch.setattr(formulas, "conic_count", lambda n, k: conic_count(n, k) + 1)
        code, out, _ = run(capsys, "verify", "conics", "--n", "8", "--seed", "3")
        obj = json.loads(out)
        assert (code, obj["pass"]) == (1, False)
        drawn = genpos._draw_lift(8, veronese(2, 2), 3, facets.k_facet_profile)[0]
        assert point_set_from_json(obj["instance"]).rows == drawn.rows

    def test_weakly_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "weakly", "--k", "2", "--seed", "1")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_deterministic_report(self, capsys):
        _, out1, _ = run(capsys, "verify", "embedding", "--k", "2", "--n", "6",
                         "--seed", "9")
        _, out2, _ = run(capsys, "verify", "embedding", "--k", "2", "--n", "6",
                         "--seed", "9")
        assert out1 == out2 and json.loads(out1)["pass"] is True


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "count")
        assert code == 2 and out == ""
        assert err == "error: kfacets count: the following arguments are required: --in\n"

    @pytest.mark.parametrize("argv,message", [
        (["certify", "--subset", "0"], "kfacets certify: the following arguments are required: --in"),
        (["frobnicate"], "kfacets: argument command: invalid choice: 'frobnicate'"),
        (["count", "--in", "x.json", "--k", "two"],
         "kfacets count: argument --k: invalid int value: 'two'"),
        (["verify", "radon", "--seed", "0", "--d", "1.5"],
         "kfacets verify: argument --d: invalid int value: '1.5'"),
        ([], "kfacets: the following arguments are required: command"),
    ])
    def test_usage_errors_are_one_error_line(self, capsys, argv, message):
        # no usage block: a parser error reads like any other bad input
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kfacets")

    def test_missing_in_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", "--in", str(tmp_path / "missing.json"))
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("key,dim", [("veronese:2000:1", 2000), ("hveronese:3000:1", 3000)])
    def test_map_of_many_source_variables_exit_2(self, capsys, square_file, key, dim):
        # the exponents are listed in a loop, not one recursion per variable,
        # so the map builds and the square is refused for its dimension
        code, out, err = run(capsys, "lift", "--in", square_file, "--map", key)
        assert code == 2 and out == ""
        assert err == f"error: point has dim 2, map expects {dim}\n"

    # each just over a cap, so that a map built past a missing check stays small
    @pytest.mark.parametrize("key", ["veronese:2:446", "hveronese:2:100000", "moment:100001",
                                     "embed:50001:1", "hveronese:3163:1", "embed:1:3163"])
    def test_map_over_the_size_caps_exit_2(self, capsys, square_file, key):
        code, out, err = run(capsys, "lift", "--in", square_file, "--map", key)
        assert code == 2 and out == ""
        assert err == ("error: map too large: at most 100000 coordinates and 10000000 "
                       "exponents (coordinates times source dimension) are supported\n")

    # (10^6)^1000 and a product of two binomials pass the map caps and the
    # argument checks, but not the interpreter's int-to-str limit
    @pytest.mark.parametrize("argv", [["lift", "--map", "moment:1000"],
                                      ["formula", "neighborly-ek", "100000", "40000", "30000"],
                                      ["formula", "neighborly-ek", "100000", "40000",
                                       "--k-range", "30000:30001"]])
    def test_output_integer_past_the_digit_limit_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "two.json"
        path.write_text('{"dim": 1, "points": [["1000000"], ["-999999"]]}')
        if argv[0] == "lift":
            argv += ["--in", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: output holds an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
                       "for integer string conversion\n")

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "points": [[0, 0]')
        code, _, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def test_malformed_points_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "points": 5}')
        code, _, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def test_malformed_labels_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1, "points": [["1"], ["2"]], "labels": 5}')
        code, _, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "points": [[true, 0], [0, 1], [1, 1], [2, 5]]}',
        '{"dim": 2, "points": [["0", "0"], ["0", "1"], ["1", false], ["2", "5"]]}',
        '{"dim": 2.5, "points": [["0", "0"], ["0", "1"], ["1", "1"], ["2", "5"]]}',
        '{"dim": true, "points": [["0"], ["1"], ["3"]]}',
    ])
    def test_bool_or_fractional_json_number_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source_dim,coef,exp", [
        ("true", '"1"', "1"), ("1", "true", "1"), ("1", '"1"', "2.7"),
        ("1.5", '"1"', "1"), ("1", "2.0", "1"), ("1", '"1/2"', "1"), ("1", '"1"', '"x"'),
    ])
    def test_custom_map_non_integer_exit_2(self, capsys, tmp_path, source_dim, coef, exp):
        points = tmp_path / "line.json"
        save_point_set(point_set([(1,), (2,), (3,)]), points)
        mmap = tmp_path / "m.json"
        mmap.write_text(f'{{"source_dim": {source_dim}, "coords": [[{{"coef": {coef}, '
                        f'"exps": [{exp}]}}], [{{"coef": "1", "exps": [1]}}]]}}')
        code, out, err = run(capsys, "lift", "--in", str(points), "--map", f"custom:{mmap}")
        assert code == 2 and out == "" and err.startswith("error: bad map JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("coords", [
        '[[{"coef": 1, "exps": "12"}]]',
        '[{"coef": 1, "exps": [1, 2]}]',
        '"[[]]"',
    ])
    def test_custom_map_non_list_exit_2(self, capsys, tmp_path, coords):
        # "12" once read as the exponents (1, 2) and lifted (1, 2) to 4
        points = tmp_path / "plane.json"
        save_point_set(point_set([(1, 2), (2, 1), (3, 5)]), points)
        mmap = tmp_path / "m.json"
        mmap.write_text(f'{{"source_dim": 2, "coords": {coords}}}')
        code, out, err = run(capsys, "lift", "--in", str(points), "--map", f"custom:{mmap}")
        assert code == 2 and out == "" and err.startswith("error: bad map JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("coords,message", [
        ('[["x"]]', "a term must be an object, got str"),
        ('[[{"coef": 1}]]', 'a term has no "exps"'),
        ('[[{"exps": [1]}]]', 'a term has no "coef"'),
    ])
    def test_custom_map_bad_term_names_the_field(self, capsys, tmp_path, coords, message):
        points = tmp_path / "line.json"
        save_point_set(point_set([(1,), (2,), (3,)]), points)
        mmap = tmp_path / "m.json"
        mmap.write_text(f'{{"source_dim": 1, "coords": {coords}}}')
        code, out, err = run(capsys, "lift", "--in", str(points), "--map", f"custom:{mmap}")
        assert (code, out, err) == (2, "", f"error: bad map JSON: {message}\n")

    @pytest.mark.parametrize("theorem", ["veronese-neighborly", "embedding"])
    def test_single_point_verifier_exit_2(self, capsys, theorem):
        code, _, err = run(capsys, "verify", theorem, "--n", "1", "--seed", "0")
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def test_projection_on_a_line_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "projection", "--n", "6", "--d", "1",
                           "--seed", "0")
        assert code == 2
        assert err == "error: projection needs d >= 2\n"

    @pytest.mark.parametrize("argv", [
        ["certify", "--in", "SQUARE", "--subset", "a"],
        ["formula", "circle", "x", "2"],
        ["formula", "conic", "9", "--k-range", "3"],
        ["formula", "conic", "9", "--k-range", "3:1"],
        ["gen", "--n", "6", "--d", "2", "--seed", "0", "--mode", "hom:x"],
    ])
    def test_non_integer_argument_exit_2(self, capsys, square_file, argv):
        argv = [square_file if a == "SQUARE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_coord_bound_is_no_option_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "5", "--d", "2", "--seed", "0",
                             "--coord-bound", "5")
        assert code == 2 and out == ""
        assert err == "error: kfacets: unrecognized arguments: --coord-bound 5\n"

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, target):
        out = tmp_path / target
        code, stdout, err = run(capsys, "gen", "--n", "5", "--d", "2", "--seed", "1",
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name,data", [
        ("bin.json", b"\xff\xfe\x00\x81 not utf-8"),
        ("bin.csv", b"\xff\xfe\x00\x81 not utf-8"),
        ("big.json", b'{"dim": 1, "points": [[' + b"7" * 5000 + b"]]}"),
    ])
    def test_undecodable_input_exit_2(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_undecodable_custom_map_exit_2(self, capsys, tmp_path, square_file):
        mmap = tmp_path / "m.json"
        mmap.write_bytes(b"\xff\xfe\x00\x81")
        code, out, err = run(capsys, "lift", "--in", square_file, "--map", f"custom:{mmap}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {mmap}: ") and err.count("\n") == 1

    def test_csv_parse_error_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n0,0\n")
        code, out, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and out == ""
        assert err == "error: CSV header must be x1,x2, got y1,y2\n"

    def test_exponent_coordinate_exit_2(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"dim": 1, "points": [["1e999999999"], ["2"]]}')
        code, out, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and out == ""
        assert err == "error: cannot parse rational from '1e999999999': no exponents\n"

    @pytest.mark.parametrize("name,text,cell", [
        ("under.csv", "x1,x2\n1_000,0\n0,1\n1,1\n", "1_000"),
        ("space.json", '{"dim": 2, "points": [[" 2 ", "0"], ["0", "1"], ["1", "1"]]}', " 2 "),
        ("hex.json", '{"dim": 2, "points": [["0x10", "0"], ["0", "1"], ["1", "1"]]}', "0x10"),
    ])
    def test_cell_outside_the_documented_grammar_exit_2(self, capsys, tmp_path,
                                                          name, text, cell):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot parse rational from {cell!r}\n"

    def test_csv_cells_are_stripped(self, capsys, tmp_path):
        spaced, tight = tmp_path / "spaced.csv", tmp_path / "tight.csv"
        spaced.write_text("x1, x2\n 0, 0\n+3 ,-3/4\n0.25, 2\n")
        tight.write_text("x1,x2\n0,0\n3,-3/4\n1/4,2\n")
        assert load_point_set(spaced) == load_point_set(tight)
        assert run(capsys, "count", "--in", str(spaced)) == \
            run(capsys, "count", "--in", str(tight))

    @pytest.mark.parametrize("argv,message", [
        (["weakly", "--k", "0"], "weakly needs k >= 1"),
        (["weakly", "--k", "-2"], "weakly needs k >= 1"),
        (["radon", "--d", "0"], "radon needs d >= 1"),
        (["radon", "--d", "-1"], "radon needs d >= 1"),
        (["embedding", "--d", "0"], "embedding needs k >= 1 and d >= 1"),
        (["homogeneous", "--m", "0"], "homogeneous needs even m >= 2"),
        (["homogeneous", "--m", "-2"], "homogeneous needs even m >= 2"),
        (["homogeneous", "--m", "3"], "homogeneous needs even m >= 2"),
        (["projection", "--n", "2", "--d", "1"], "projection needs d >= 2"),
        (["projection", "--n", "4", "--d", "0"], "projection needs d >= 2"),
        (["projection", "--d", "1", "--n", "4"], "projection needs d >= 2"),
    ])
    def test_verifier_checks_its_own_parameter(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv, "--seed", "0")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["verify", "circles", "--n", "9", "--d", "5", "--m", "40", "--k", "3"],
         "circles does not take ['d', 'k', 'm']"),
        (["verify", "radon", "--d", "3", "--n", "5"], "radon does not take ['n']"),
    ])
    def test_option_the_command_ignores_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--seed", "0")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_internal_error_exit_3(self, capsys, monkeypatch, tmp_path):
        def broken(ps):
            raise RuntimeError("radon witness failed validation")

        path = tmp_path / "pts.json"
        save_point_set(random_point_set(4, 2, seed=0), path)
        monkeypatch.setattr(facelab, "radon_partition", broken)
        code, out, err = run(capsys, "radon", "--in", str(path))
        assert code == 3 and out == ""
        assert err == "internal error: radon witness failed validation\n"

    def test_unexpected_exception_exit_3(self, capsys, monkeypatch, tmp_path):
        def broken(ps):
            raise ZeroDivisionError("division by zero")

        path = tmp_path / "pts.json"
        save_point_set(random_point_set(4, 2, seed=0), path)
        monkeypatch.setattr(facelab, "radon_partition", broken)
        code, out, err = run(capsys, "radon", "--in", str(path))
        assert code == 3 and out == ""
        assert err == "internal error: ZeroDivisionError: division by zero\n"

    def test_face_lp_disagreeing_with_hull_exit_3(self, capsys, monkeypatch, square_file):
        monkeypatch.setattr(facelab, "maximize",
                            lambda objective, rows: (0, [0] * len(objective)))
        # vertex 0 lies in two edges, so its weak certificate solves the LP
        code, out, err = run(capsys, "certify", "--in", square_file, "--subset", "0", "--weak")
        assert code == 3 and out == ""
        assert err == "internal error: face LP disagrees with the hull facets\n"

    def test_weak_facet_plane_failing_substitution_exit_3(self, capsys, monkeypatch,
                                                          square_file):
        # one edge holds 0,1, so its plane is read off the hull and no LP runs
        monkeypatch.setattr(facelab, "maximize", _no_lp)
        monkeypatch.setattr(facelab, "_strict_plane", _shifted(facelab._strict_plane))
        code, out, err = run(capsys, "certify", "--in", square_file, "--subset", "0,1", "--weak")
        assert code == 3 and out == ""
        assert err == "internal error: face certificate failed substitution\n"

    def test_strict_certificate_failing_substitution_exit_3(self, capsys, monkeypatch,
                                                            square_file):
        monkeypatch.setattr(facelab, "_strict_plane", _shifted(facelab._strict_plane))
        code, out, err = run(capsys, "certify", "--in", square_file, "--subset", "0,1")
        assert code == 3 and out == ""
        assert err == "internal error: face certificate failed substitution\n"

    def test_vertex_plane_failing_substitution_exit_3(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "set.json"
        save_point_set(convex_position_set(6, 3, seed=2), path)
        monkeypatch.setattr(projection, "_strict_plane", _shifted(projection._strict_plane))
        code, out, err = run(capsys, "project", "--in", str(path), "--vertex", "0", "--k", "1")
        assert code == 3 and out == ""
        assert err == "internal error: vertex plane failed substitution\n"

    def test_degenerate_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        save_point_set(point_set([(0, 0), (1, 0), (2, 0)]), path)
        code, _, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and err


def _no_lp(objective, rows):
    raise AssertionError("the weak face LP was solved")


def _shifted(strict_plane):
    """strict_plane with its plane moved off every point it held."""
    def shifted(functionals):
        plane = strict_plane(functionals)
        return Hyperplane(plane.normal, plane.offset + 1)
    return shifted


def test_main_called_again_in_one_process_acts_like_separate_runs(capsys, square_file):
    calls = [["verify", "weakly", "--k", "2", "--seed", "1"],
             ["verify", "radon", "--d", "0", "--seed", "0"],
             ["certify", "--in", square_file, "--subset", "0,1"],
             ["count", "--in", square_file, "--k", "x"]]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "kfacets.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in separate] == [0, 2, 0, 2]
    assert [run(capsys, *argv) for argv in calls] == separate


class TestRunVerifier:
    def test_unknown_theorem(self):
        with pytest.raises(InputError):
            run_verifier("nope", seed=0)

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            run_verifier("circles", seed=0, n=7, m=2)

    @pytest.mark.parametrize("theorem,params,lift", [
        ("circles", {"n": 7}, circle_map()),
        ("conics", {"n": 7}, veronese(2, 2)),
        ("homogeneous", {"n": 6, "m": 4}, homogeneous_veronese(2, 4)),
    ])
    def test_lift_draw_matches_map_generic_set(self, monkeypatch, theorem, params, lift):
        # the verifiers accept a draw by sweeping its lift; the seeded sets
        # and profiles must be those of the GLP check followed by one sweep
        reports = []
        monkeypatch.setattr(cli, "_report", lambda *args: reports.append(args))
        for seed in range(150):
            run_verifier(theorem, seed, **params)
            *_, measured, instance = reports[-1]
            ps = map_generic_set(params["n"], lift, seed)
            assert instance == ps
            e = list(k_facet_profile(lift.apply(ps)).e)
            assert (measured["profile"] if theorem == "circles" else measured) == e

    def test_lift_reports_unchanged(self):
        # recorded while the verifiers still caught the sweep's DegeneracyError
        # themselves, before the draw loop took that over
        reports = [run_verifier(theorem, seed, **params)
                   for theorem, params in (("circles", {"n": 9}), ("conics", {"n": 8}),
                                           ("homogeneous", {"n": 8, "m": 4}))
                   for seed in range(10)]
        assert hashlib.sha256(dumps(reports).encode()).hexdigest() == (
            "2f39d6e1baddc804bf4a0cff643e68b32e9e86c75c9a9a8ffd8ac905c0181681")

    def test_matches_cli_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "circles", "--n", "9", "--seed", "3")
        assert code == 0
        assert dumps(run_verifier("circles", seed=3, n=9)) == out
