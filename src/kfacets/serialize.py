"""JSON and CSV interchange for point sets, maps, certificates, and reports.

Coordinates serialize as exact strings ("3", "-3/4"); decimals in input
parse exactly (0.25 becomes 1/4).  CSV point files use an x1..xp header row.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InputError
from .facelab import FaceCertificate, RadonWitness
from .facets import KFacetProfile
from .geometry import Hyperplane, PointSet, point_set, rational
from .liftmaps import MonomialMap, map_from_key


def exact_str(value: int | Fraction) -> str:
    """The exact string of an int or a Fraction.  An integer longer than
    the interpreter's int-to-str limit (``sys.get_int_max_str_digits``)
    cannot be written out: that is an InputError that names the limit,
    which stays as it is."""
    try:
        return str(value)
    except ValueError:
        raise InputError(f"output holds an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, the interpreter's limit for integer string conversion") from None


def point_set_to_json(ps: PointSet) -> dict:
    obj = {
        "dim": ps.dim,
        "points": [list(map(exact_str, pt)) for pt in ps.points],
    }
    if ps.labels is not None:
        obj["labels"] = list(ps.labels)
    return obj


def point_set_from_json(obj: dict) -> PointSet:
    try:
        dim, rows = obj["dim"], obj["points"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad point set JSON: {exc}") from exc
    if type(dim) is not int:
        raise InputError(f'bad point set JSON: "dim" must be an integer, got {dim!r}')
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError('bad point set JSON: "points" must be a list of lists')
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(s, str) for s in labels)):
        raise InputError('bad point set JSON: "labels" must be a list of strings')
    ps = point_set(rows, labels=labels)
    if ps.dim != dim:
        raise InputError(f"declared dim {dim} != coordinate width {ps.dim}")
    return ps


def point_set_from_csv(text: str) -> PointSet:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise InputError("empty CSV")
    header = [h.strip() for h in rows[0]]
    expected = [f"x{i + 1}" for i in range(len(header))]
    if header != expected:
        raise InputError(f"CSV header must be {','.join(expected)}, got {','.join(header)}")
    # cells are stripped like the header, so "1, 2" reads as 1 and 2
    points = [[cell.strip() for cell in row] for row in rows[1:]]
    if points and len(points[0]) != len(header):
        raise InputError(f"CSV header declares dim {len(header)} != coordinate width "
                         f"{len(points[0])}")
    return point_set(points)


def _read(path: Path) -> str:
    # a missing, unreadable or non-UTF-8 file is bad input, not a crash
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path: Path):
    text = _read(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int past Python's digit limit
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_point_set(path: str | Path) -> PointSet:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return point_set_from_csv(_read(path))
    return point_set_from_json(_read_json(path))


def _integer(value) -> int:
    # an int or an integral rational string; never a boolean or a float
    q = rational(value)
    if q.denominator != 1:
        raise InputError(f"{value!r} is not an integer")
    return int(q)


def _json_list(value, what: str) -> list:
    # a string or an object would iterate as characters or keys
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _field(obj, key: str, what: str):
    """obj[key], for the JSON object that what names; a non-object or a
    missing key is an InputError that names them."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise InputError(f'{what} has no "{key}"')
    return obj[key]


def _int_field(obj, key: str, what: str) -> int:
    value = _field(obj, key, what)
    try:
        return _integer(value)
    except InputError:
        raise InputError(f'"{key}" must be an integer, got {value!r}') from None


def _term(term) -> tuple[int, tuple[int, ...]]:
    coef = _int_field(term, "coef", "a term")
    exps = _json_list(_field(term, "exps", "a term"), '"exps"')
    try:
        return coef, tuple(map(_integer, exps))
    except InputError:
        raise InputError(f'"exps" must be a list of integers, got {exps!r}') from None


def map_from_json(obj: dict) -> MonomialMap:
    """The custom map JSON {"source_dim": s, "coords": [[{"coef": c, "exps":
    [e, ...]}, ...], ...]}; any malformed field is an InputError that names it."""
    try:
        coords = tuple(tuple(map(_term, _json_list(terms, "a coordinate's terms")))
                       for terms in _json_list(_field(obj, "coords", "a map"), '"coords"'))
        return MonomialMap(source_dim=_int_field(obj, "source_dim", "a map"), coords=coords)
    except InputError as exc:
        raise InputError(f"bad map JSON: {exc}") from None


def resolve_map(key: str) -> MonomialMap:
    """Map keys as in liftmaps.map_from_key, plus custom:<file> JSON maps."""
    if key.startswith("custom:"):
        return map_from_json(_read_json(Path(key.split(":", 1)[1])))
    return map_from_key(key)


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {
        "normal": list(map(exact_str, h.normal)),
        "offset": exact_str(h.offset),
    }


def certificate_to_json(cert: FaceCertificate) -> dict:
    obj = hyperplane_to_json(cert.hyperplane)
    obj["strict"] = cert.strict
    return obj


def certificate_from_json(obj: dict) -> FaceCertificate:
    try:
        normal, offset, strict = obj["normal"], obj["offset"], obj["strict"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(normal, list):
        raise InputError('bad certificate JSON: "normal" must be a list')
    if not isinstance(strict, bool):
        raise InputError('bad certificate JSON: "strict" must be true or false')
    h = Hyperplane(tuple(rational(c) for c in normal), rational(offset))
    return FaceCertificate(hyperplane=h, strict=strict)


def radon_to_json(ps: PointSet, w: RadonWitness) -> dict:
    """The witness w of ps in exact strings: its parts, each point's weight
    |mu_j| D_j / total in its part and the point both parts mix to,
    sum_Q mu_j X_j / total, where total = sum_Q mu_j D_j (``RadonWitness``)."""
    q = [(v, y) for v, y in zip(w.mu, ps.rows) if v > 0]
    total = sum(v * y[-1] for v, y in q)
    return {
        "Q": list(w.part_q),
        "R": list(w.part_r),
        "lambdas": [exact_str(Fraction(abs(v) * y[-1], total)) for v, y in zip(w.mu, ps.rows)],
        "point": [exact_str(Fraction(sum(v * y[axis] for v, y in q), total))
                  for axis in range(ps.dim)],
    }


def profile_to_csv(profile: KFacetProfile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "e_k"])
    for k, count in enumerate(profile.e):
        writer.writerow([k, count])
    return buf.getvalue()


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace drift, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
