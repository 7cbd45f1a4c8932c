import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import map_to_json, point_set_to_csv, save_point_set
from kfacets.cli import main
from kfacets.errors import InputError
from kfacets.facelab import face_certificate, radon_partition
from kfacets.facets import k_facet_profile
from kfacets.geometry import Hyperplane, point_set
from kfacets.liftmaps import veronese
from kfacets.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    hyperplane_to_json,
    load_point_set,
    map_from_json,
    point_set_from_csv,
    point_set_from_json,
    point_set_to_json,
    profile_to_csv,
    radon_to_json,
    resolve_map,
)

F = Fraction
SQUARE = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])


coords = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


class TestPointSetJson:
    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, rows):
        ps = point_set(rows)
        assert point_set_from_json(point_set_to_json(ps)) == ps

    def test_exact_strings(self):
        ps = point_set([("1/3", "0.25")])
        obj = point_set_to_json(ps)
        assert obj["points"][0] == ["1/3", "1/4"]

    def test_labels_survive(self):
        ps = point_set([(0, 1), (2, 3)], labels=["p", "q"])
        assert point_set_from_json(point_set_to_json(ps)).labels == ("p", "q")

    def test_declared_dim_enforced(self):
        with pytest.raises(InputError):
            point_set_from_json({"dim": 3, "points": [["1", "2"]]})

    def test_non_integer_dim_rejected(self):
        with pytest.raises(InputError):
            point_set_from_json({"dim": "x", "points": [["1", "2"]]})

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
    def test_dim_must_be_a_json_integer(self, dim):
        # each would pass the width check if read through int()
        points = [["1"], ["2"]] if dim is True else [["1", "2"], ["3", "4"]]
        with pytest.raises(InputError, match='"dim" must be an integer'):
            point_set_from_json({"dim": dim, "points": points})

    @pytest.mark.parametrize("points", [5, "12", [5, 6], [["1", "2"], "34"]])
    def test_malformed_points_rejected(self, points):
        with pytest.raises(InputError):
            point_set_from_json({"dim": 2, "points": points})

    @pytest.mark.parametrize("labels", [5, "pq", ["p", 2], {"p": "q"}])
    def test_malformed_labels_rejected(self, labels):
        with pytest.raises(InputError):
            point_set_from_json({"dim": 1, "points": [["1"], ["2"]], "labels": labels})

    def test_file_round_trip(self, tmp_path):
        ps = point_set([("1/2", "-3"), ("0", "7")])
        path = tmp_path / "pts.json"
        save_point_set(ps, path)
        assert load_point_set(path) == ps


class TestPointSetCsv:
    def test_round_trip(self):
        ps = point_set([("1/2", "-3"), ("0.25", "7")])
        assert point_set_from_csv(point_set_to_csv(ps)) == ps

    def test_header_shape(self):
        text = point_set_to_csv(SQUARE)
        assert text.splitlines()[0] == "x1,x2"

    def test_wrong_header_rejected(self):
        with pytest.raises(InputError):
            point_set_from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("text,message", [
        ("x1,x2\n0,0,0\n1,2,3\n", "CSV header declares dim 2 != coordinate width 3"),
        ("x1,x2,x3\n0,0\n1,2\n", "CSV header declares dim 3 != coordinate width 2"),
    ], ids=["wider-rows", "narrower-rows"])
    def test_header_width_must_match_the_rows(self, text, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            point_set_from_csv(text)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        save_point_set(SQUARE, path)
        assert load_point_set(path) == SQUARE

    def test_non_csv_suffix_defaults_to_json(self, tmp_path):
        path = tmp_path / "pts.dat"
        save_point_set(SQUARE, path)
        assert json.loads(path.read_text())["dim"] == 2
        assert load_point_set(path) == SQUARE


class TestMapJson:
    def test_round_trip(self):
        vm = veronese(2, 2)
        assert map_from_json(map_to_json(vm)) == vm

    def test_resolve_builtin_key(self):
        assert resolve_map("veronese:2:2") == veronese(2, 2)

    def test_resolve_custom_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(veronese(2, 2))))
        assert resolve_map(f"custom:{path}") == veronese(2, 2)

    def test_missing_custom_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            resolve_map(f"custom:{tmp_path / 'missing.json'}")

    @pytest.mark.parametrize("field,value", [
        ("source_dim", True), ("source_dim", 1.0), ("source_dim", "1/2"),
        ("coef", True), ("coef", 2.7), ("coef", "1/2"),
        ("exps", False), ("exps", 2.7), ("exps", "3/2"),
    ])
    def test_non_integer_field_rejected(self, field, value):
        obj = {"source_dim": 1, "coords": [[{"coef": "2", "exps": [2]}], [{"coef": 1, "exps": [1]}]]}
        term = obj["coords"][0][0]
        if field == "source_dim":
            obj["source_dim"] = value
        else:
            term[field] = [value] if field == "exps" else value
        with pytest.raises(InputError, match="^bad map JSON"):
            map_from_json(obj)

    @pytest.mark.parametrize("coords", [
        [[{"coef": 1, "exps": "12"}]],
        [{"coef": 1, "exps": [1, 2]}],
        [[{"coef": 1, "exps": {"0": 1, "1": 2}}]],
        "[[{}]]",
        {"0": [{"coef": 1, "exps": [1, 2]}]},
    ])
    def test_non_list_structure_rejected(self, coords):
        # a string or an object would iterate as characters or keys
        with pytest.raises(InputError, match="^bad map JSON: .* must be a list"):
            map_from_json({"source_dim": 2, "coords": coords})

    @pytest.mark.parametrize("obj,message", [
        ({"source_dim": 1, "coords": [["x"]]}, "a term must be an object, got str"),
        ({"source_dim": 1, "coords": [[{"coef": 1}]]}, 'a term has no "exps"'),
        ({"source_dim": 1, "coords": [[{"exps": [1]}]]}, 'a term has no "coef"'),
        ({"source_dim": 1}, 'a map has no "coords"'),
        ({"coords": [[{"coef": 1, "exps": [1]}]]}, 'a map has no "source_dim"'),
        ([[{"coef": 1, "exps": [1]}]], "a map must be an object, got list"),
        ({"source_dim": 1, "coords": [[{"coef": 2.7, "exps": [1]}]]},
         '"coef" must be an integer, got 2.7'),
        ({"source_dim": 1, "coords": [[{"coef": 1, "exps": ["1/2"]}]]},
         "\"exps\" must be a list of integers, got ['1/2']"),
        ({"source_dim": True, "coords": [[{"coef": 1, "exps": [1]}]]},
         '"source_dim" must be an integer, got True'),
    ])
    def test_malformed_field_is_named(self, obj, message):
        with pytest.raises(InputError) as info:
            map_from_json(obj)
        assert str(info.value) == f"bad map JSON: {message}"

    def test_integral_strings_read_as_ints(self):
        obj = {"source_dim": "1", "coords": [[{"coef": "-4/2", "exps": ["2"]}]]}
        assert map_from_json(obj).coords == (((-2, (2,)),),)


class TestCertificates:
    def test_hyperplane_json(self):
        h = Hyperplane((F(1), F(-2)), F(3))
        assert hyperplane_to_json(h) == {"normal": ["1", "-2"], "offset": "3"}

    def test_certificate_round_trip(self):
        cert = face_certificate(SQUARE, (0, 1))
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert and back.validate(SQUARE, (0, 1))

    @pytest.mark.parametrize("field,value", [("strict", "false"), ("strict", 1),
                                             ("normal", "10"), ("normal", None),
                                             ("normal", [True, "0"]), ("offset", True)])
    def test_malformed_certificate_rejected(self, field, value):
        obj = {**certificate_to_json(face_certificate(SQUARE, (0, 1))), field: value}
        with pytest.raises(InputError):
            certificate_from_json(obj)

    def test_radon_json_shape(self):
        ps = point_set([(0, 0), (3, 0), (0, 3), (1, 1)])
        obj = radon_to_json(ps, radon_partition(ps))
        assert set(obj) == {"Q", "R", "lambdas", "point"}
        assert sorted(obj["Q"] + obj["R"]) == [0, 1, 2, 3]


class TestReports:
    def test_count_reports_are_pinned(self, capsys, tmp_path):
        # stdout of `kfacets count` in its four JSON shapes, byte for byte
        path = tmp_path / "seven.json"
        save_point_set(point_set([(-13, 9), (6, -20), (-5, 10), (2, 12), (9, -24),
                                  (10, -28), (25, 2)]), path)
        out = ""
        for extra in ([], ["--k", "1"], ["--mode", "sets", "--k", "2"], ["--mode", "sets"]):
            assert main(["count", "--in", str(path), *extra]) == 0
            out += capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "33a6aea380ed3e5407b58cceccdfcd9cf3112a2a85cee52f8937da6f3bd09209")

    def test_profile_csv(self):
        text = profile_to_csv(k_facet_profile(SQUARE))
        assert text.splitlines() == ["k,e_k", "0,4", "1,4", "2,4"]

    def test_dumps_canonical(self):
        s = dumps({"b": 1, "a": 2})
        assert s == '{\n  "a": 2,\n  "b": 1\n}\n'
