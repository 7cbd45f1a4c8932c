"""Shared independent oracles for the test suite.

These deliberately avoid the package's own linear algebra: determinants are
permutation sums, ranks are largest nonzero minors, sides are raw Fraction
arithmetic, so they can confirm the fast paths without sharing code with them.
The file writers at the end are test helpers, used only to feed the readers.
"""

import csv
import io
import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from lp_oracle import separation_hyperplane

from kfacets.geometry import Hyperplane, PointSet
from kfacets.liftmaps import MonomialMap
from kfacets.serialize import point_set_to_json


def assert_record(cls, fields: dict, text: str, **changed) -> None:
    """The value contract of a kfacets record, given its fields as it
    stores them, in order: built by keyword or by position alike, equal
    with an equal hash to a record of equal fields and unequal to one with
    the changed fields, read-only (no field assigned or deleted), and
    printed as text."""
    record, positional = cls(**fields), cls(*fields.values())
    assert record == positional and hash(record) == hash(positional)
    assert not record != positional
    assert record != cls(**{**fields, **changed}) and not record == cls(**{**fields, **changed})
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@cache
def _signed_permutations(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, perm) for every permutation of range(n), the sign by
    counting inversions."""
    out = []
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        out.append((sign, perm))
    return out


def det_perm(matrix) -> Fraction:
    """Determinant by the permutation-sum definition (small matrices only).

    Each row is first scaled to integers by the lcm of its denominators,
    and the sum divided by their product: the same value, with no Fraction
    arithmetic per term."""
    rows, scale = [], 1
    for row in matrix:
        mult = lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(v * mult) for v in row])
        scale *= mult
    total = 0
    for sign, perm in _signed_permutations(len(rows)):
        total += sign * prod(row[c] for row, c in zip(rows, perm))
    return Fraction(total, scale)


def rank_oracle(matrix) -> int:
    """Rank as the size of the largest nonzero minor (small matrices only)."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                if det_perm([[matrix[i][j] for j in cols] for i in rows]):
                    return size
    return 0


def plane_value(h, point) -> Fraction:
    """a.x - b at the point x, for the plane h = (a, b), in Fraction
    arithmetic: positive above the plane, 0 on it."""
    return sum(Fraction(a) * x for a, x in zip(h.normal, point)) - h.offset


def canonical_plane(points) -> Hyperplane:
    """The canonical plane through dim affinely independent points: (a, b)
    is the coprime integer multiple of (c, c . points[0]) whose first
    nonzero normal entry is positive, c the cofactor vector of
    det([x - points[0]; points[i] - points[0]])."""
    base = [Fraction(x) for x in points[0]]
    rows = [[x - b for x, b in zip(pt, base)] for pt in points[1:]]
    cof = [(-1) ** j * det_perm([r[:j] + r[j + 1:] for r in rows]) for j in range(len(base))]
    values = [*cof, sum(c * b for c, b in zip(cof, base))]
    scale = lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = gcd(*ints) if next(v for v in ints if v) > 0 else -gcd(*ints)
    *normal, offset = (v // g for v in ints)
    return Hyperplane(tuple(normal), offset)


def plane_signs(h, ps: PointSet) -> list[int]:
    """The side of h = (a, b) of every point of ps, +1 above it: the sign
    of the integer a.X_j - b D_j on ps's rows (X_j, D_j), for checking the
    integer forms of points and planes against ``plane_value``."""
    a = (*h.normal, -h.offset)
    return [(v > 0) - (v < 0) for v in (sum(c * x for c, x in zip(a, y)) for y in ps.rows)]


def violating_subset_oracle(ps: PointSet) -> tuple[int, ...] | None:
    """GLP witness by brute force: the lexicographically first affinely
    dependent (dim + 1)-subset, or None.

    With n <= dim there are no such subsets; then the witness is the first
    dependent subset of the smallest size, if the whole set is dependent.
    Dependence is a zero Gram determinant of the difference rows, which for
    dim + 1 points is the square of the difference determinant.
    """
    def dependent(idx):
        base = ps.points[idx[0]]
        rows = [[x - b for x, b in zip(ps.points[i], base)] for i in idx[1:]]
        if len(rows) == ps.dim:
            return det_perm(rows) == 0
        gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        return det_perm(gram) == 0

    n, p = ps.n, ps.dim
    sizes = [p + 1] if n > p else range(2, n + 1)
    for size in sizes:
        for idx in combinations(range(n), size):
            if dependent(idx):
                return idx
    return None


def _splits_oracle(ps: PointSet):
    """(subset, positives, negatives) for every spanning subset, by
    brute-force sign counting; degenerate configurations raise ValueError:
    another point on the subset's hyperplane, or a dependent subset (zero
    Gram determinant of its difference rows, which for dim 1 are none)."""
    n, p = ps.n, ps.dim
    for subset in combinations(range(n), p):
        base = ps.points[subset[0]]
        rows = [[x - b for x, b in zip(ps.points[i], base)] for i in subset[1:]]
        pos = neg = on = 0
        for j in range(n):
            if j in subset:
                continue
            mat = rows + [[x - b for x, b in zip(ps.points[j], base)]]
            d = det_perm(mat)
            if d > 0:
                pos += 1
            elif d < 0:
                neg += 1
            else:
                on += 1
        gram = [[sum(a * b for a, b in zip(r, q)) for q in rows] for r in rows]
        if on or det_perm(gram) == 0:
            raise ValueError(f"degenerate subset {subset}")
        yield subset, pos, neg


def profile_oracle(ps: PointSet) -> tuple[int, ...]:
    """k-facet profile by brute-force sign counting, independent of the engine.

    For each spanning subset the unordered pair of side counts is recorded;
    degenerate configurations raise ValueError.
    """
    e = [0] * (ps.n - ps.dim + 1)
    for _, pos, neg in _splits_oracle(ps):
        e[pos] += 1
        e[neg] += 1
    return tuple(e)


def through_vertex_oracle(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """table[v][k]: oriented k-facets whose spanning subset contains v, by
    the same brute-force sign counting as profile_oracle."""
    table = [[0] * (ps.n - ps.dim + 1) for _ in range(ps.n)]
    for subset, pos, neg in _splits_oracle(ps):
        for v in subset:
            table[v][pos] += 1
            table[v][neg] += 1
    return tuple(map(tuple, table))


def k_sets_oracle(ps: PointSet, k: int) -> tuple[tuple[int, ...], ...]:
    """Every k-subset, kept iff the margin LP strictly separates it."""
    out = []
    for subset in combinations(range(ps.n), k):
        if separation_hyperplane(ps, subset) is not None:
            out.append(subset)
    return tuple(out)


def lift_oracle(mmap, point) -> tuple[Fraction, ...]:
    """The image of one point under a ``MonomialMap``, term by term in
    Fraction arithmetic."""
    out = []
    for terms in mmap.coords:
        acc = Fraction(0)
        for coef, exps in terms:
            v = Fraction(coef)
            for x, e in zip(point, exps):
                v *= Fraction(x) ** e
            acc += v
        out.append(acc)
    return tuple(out)


def projection_oracle(ps: PointSet, v: int, h) -> tuple[tuple[Fraction, ...], ...]:
    """The stereographic images (x_j - x_v) / (a.x_j - b) of every point but
    ps[v], for the plane h = (a, b), in Fraction arithmetic, without the
    first axis of largest |a_i|."""
    drop = max(range(ps.dim), key=lambda i: abs(h.normal[i]))
    pole = ps.points[v]
    out = []
    for j, pt in enumerate(ps.points):
        if j != v:
            level = sum(Fraction(a) * x for a, x in zip(h.normal, pt)) - h.offset
            out.append(tuple((x - p) / level for i, (x, p) in enumerate(zip(pt, pole))
                             if i != drop))
    return tuple(out)


def point_set_to_csv(ps: PointSet) -> str:
    """The CSV point file that ``serialize.point_set_from_csv`` reads: an
    x1..xp header row, then one row of exact coordinates per point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{i + 1}" for i in range(ps.dim)])
    for pt in ps.points:
        writer.writerow([str(c) for c in pt])
    return buf.getvalue()


def save_point_set(ps: PointSet, path) -> None:
    """Write ps as CSV for a .csv path, as point set JSON otherwise."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(point_set_to_csv(ps))
    else:
        path.write_text(json.dumps(point_set_to_json(ps), indent=2) + "\n")


def map_to_json(mmap: MonomialMap) -> dict:
    """The custom map JSON that ``serialize.map_from_json`` reads."""
    return {
        "source_dim": mmap.source_dim,
        "coords": [
            [{"exps": list(exps), "coef": str(coef)} for coef, exps in terms]
            for terms in mmap.coords
        ],
    }
