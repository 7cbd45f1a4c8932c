"""Exact affine geometry over the rationals.

A ``PointSet`` stores each point x_j once, as its homogeneous integer row
(X_j, D_j) = (D_j x_j, D_j): the one coprime multiple of (x_j, 1) with
D_j > 0, which no side or zero can tell apart from it.  The point's
``fractions.Fraction`` coordinates X_j / D_j are read off that row.  A
``Hyperplane`` is likewise its coprime integer form, and a point's side of
it is the sign of one integer (``_plane_signs``), so every predicate here is
decided by integer signs.  There is no floating point anywhere in a
decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import DegeneracyError, InputError

Point = tuple[Fraction, ...]


def rational(value) -> Fraction:
    """Parse a scalar as an exact rational.

    Accepts ints, Fractions, and strings in the forms ``"3"``, ``"-3/4"``
    and ``"0.25"`` (decimals are exact, never binary-float approximations).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise InputError(
            f"refusing float {value!r}: pass a string or Fraction for exactness"
        )
    raise InputError(f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    return str(value)


@dataclass(frozen=True)
class PointSet:
    """An ordered list of labelled points sharing one ambient dimension,
    stored as their homogeneous integer rows (X_j, D_j), D_j > 0, each
    reduced by its gcd on construction."""

    dim: int
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        prim = []
        for i, row in enumerate(self.rows):
            if len(row) != self.dim + 1:
                raise InputError(
                    f"point {i} has {len(row) - 1} coordinates, expected {self.dim}")
            # a weight D <= 0 would flip, or lose, every side of the point
            if row[-1] <= 0:
                raise InputError(f"point {i} has weight {row[-1]}, expected > 0")
            g = gcd(*row)
            prim.append(tuple(v // g for v in row))
        object.__setattr__(self, "rows", tuple(prim))
        if self.labels is not None and len(self.labels) != len(self.rows):
            raise InputError("labels must match points one to one")

    @property
    def n(self) -> int:
        return len(self.rows)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """Each point x_j = X_j / D_j, read off its row (X_j, D_j)."""
        return tuple(tuple(Fraction(x, row[-1]) for x in row[:-1]) for row in self.rows)

    @cached_property
    def hull(self) -> "Hull":
        """The facets of the set's convex hull (``Hull``), found once."""
        return Hull(self.rows)


def point_set(rows: Sequence[Sequence], labels: Sequence[str] | None = None) -> PointSet:
    """Build a PointSet, coercing every coordinate through ``rational``."""
    pts = [[rational(c) for c in row] for row in rows]
    if not pts:
        raise InputError("point set needs at least one point")
    return PointSet(dim=len(pts[0]), rows=_int_rows([(*pt, 1) for pt in pts]),
                    labels=tuple(labels) if labels is not None else None)


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane ``normal . x = offset``; positive side is ``> offset``.

    Built from ints or rationals, it keeps the coprime integers (a, b) that
    are a positive multiple of (normal, offset), so two forms of one
    oriented plane are equal.
    """

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self):
        *a, b = _int_rows([(*self.normal, self.offset)])[0]
        if not any(a):
            raise InputError("hyperplane normal must be nonzero")
        g = gcd(*a, b)
        object.__setattr__(self, "normal", tuple(v // g for v in a))
        object.__setattr__(self, "offset", b // g)


# --- integer linear algebra -------------------------------------------------

def _int_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    # per-row positive scaling: preserves determinant sign and row space
    out = []
    for row in rows:
        mult = lcm(*(f.denominator for f in row))
        out.append([f.numerator * (mult // f.denominator) for f in row])
    return out


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (reduced, pivots, last): row i < len(pivots) of reduced reads
    last * e_pivots[i] plus entries at the non-pivot columns, and the rows
    below are zero.  The pivot columns are the lexicographically first
    column basis.  A row swapped up negates the row it displaces, which
    keeps the determinant, the row space and the kernel, so for a
    nonsingular square matrix last is the determinant; with no pivots it
    is 1.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for j in range(len(m[0]) if m else 0):
        rank = len(pivots)
        r = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if r is None:
            continue
        if r != rank:
            m[rank], m[r] = m[r], [-a for a in m[rank]]
        prow = m[rank]
        piv = prow[j]
        for i, row in enumerate(m):
            if i != rank:
                # dividing by the previous pivot is exact (Bareiss)
                f = row[j]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = piv
        pivots.append(j)
    return m, pivots, prev


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix."""
    return len(_gauss_jordan(rows)[1])


def _nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the nullspace of an integer matrix with ncols columns.

    One vector per non-pivot column of ``_gauss_jordan``, in column order:
    positive at its own column, 0 at the other non-pivot columns.
    """
    m, pivots, last = _gauss_jordan(rows)
    sign = 1 if last > 0 else -1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = sign * last
        for row, j in zip(m, pivots):
            vec[j] = -sign * row[free]
        basis.append(vec)
    return basis


def violating_subset(ps: PointSet) -> tuple[int, ...] | None:
    """The lexicographically first affinely dependent (dim + 1)-subset of ps,
    or None if ps is in general linear position; for n <= dim, the first
    dependent subset of the smallest size.  The subsets are walked as a
    dim-subset of range(n - 1) from ``_prefix_walk`` plus a later index whose
    side value is 0.
    """
    n, p = ps.n, ps.dim
    if n <= p:
        if rank_int(ps.rows) == n:
            return None
        return next(idx for size in range(2, n + 1)
                    for idx in combinations(range(n), size)
                    if rank_int([ps.rows[i] for i in idx]) < size)
    for s, sides in _prefix_walk(ps.rows, n - 1):
        if sides is None:
            # every superset of a dependent subset is dependent
            return s + (s[-1] + 1,)
        if 0 in sides[s[-1] + 1:]:
            return s + (sides.index(0, s[-1] + 1),)
    return None


def is_general_linear_position(ps: PointSet) -> bool:
    """True iff no dim + 1 points of ps are affinely dependent.

    For n <= dim this degenerates to affine independence of all points.
    """
    return violating_subset(ps) is None


def hyperplane_through(pts: Sequence[Point]) -> Hyperplane:
    """The canonical hyperplane through dim affinely independent points.

    (a, c) spans the kernel (``_nullspace``) of the rows (pts[i], 1), so
    a.x + c = 0 on every point; the plane is (a, -c), or its negation, so
    that the first nonzero normal entry is positive.
    """
    dim = len(pts[0])
    if len(pts) != dim:
        raise InputError(f"need exactly {dim} points in dim {dim}, got {len(pts)}")
    # dim rows leave one kernel vector iff the points are affinely independent
    basis = _nullspace(_int_rows([(*pt, 1) for pt in pts]), dim + 1)
    if len(basis) != 1:
        raise DegeneracyError("points are affinely dependent", tuple(range(dim)))
    *a, c = basis[0]
    sign = 1 if next(v for v in a if v) > 0 else -1
    return Hyperplane(tuple(sign * v for v in a), -sign * c)


def _chart_axes(ys: Sequence[Sequence[int]], idx: Sequence[int]) -> list[int]:
    """The pivot axes (``_gauss_jordan``) of the homogeneous rows ys[idx],
    the weight column pivoted first and listed last as -1."""
    _, pivots, _ = _gauss_jordan([(ys[i][-1], *ys[i][:-1]) for i in idx])
    return [a - 1 for a in pivots[1:]] + [-1]


def _affine_chart(ys: Sequence[Sequence[int]], idx: Sequence[int]) -> list[tuple[int, ...]]:
    """The homogeneous rows ys[idx] on their ``_chart_axes``: an exact
    injective chart of aff(idx), in dim aff(idx) coordinates and the weight,
    so only the weight when every point coincides.  A functional on the
    chart rows is one on ys, with zeros off those axes."""
    axes = _chart_axes(ys, idx)
    return [tuple(ys[i][a] for a in axes) for i in idx]


def _prefix_walk(ys: Sequence[Sequence[int]], stop: int,
                 rows: list[list[int]] | None = None, prefix: tuple[int, ...] = (),
                 prev: int = 1) -> Iterator[tuple[tuple[int, ...], list[int] | None]]:
    """(s, sides) for every dim-subset s of range(stop), in lexicographic
    order, of the points with homogeneous integer rows ys (``PointSet.rows``):
    sides[j] is y_j's value under a functional that vanishes on s, a nonzero
    multiple of either sign of the one through s's hyperplane, or sides is
    None if the points s are affinely dependent.  The walk keeps no
    orientation; a caller that needs one appends the axis directions
    (e_i, 0) to ys, whose values are the plane's normal.

    A row is a linear functional, kept as its values at every y_j.
    Appending i to the prefix is one fraction-free (Bareiss) pivot on column
    i, shared by every subset below that prefix; no pivot means y_i is
    dependent on the prefix.  Below a (dim - 1)-prefix two rows u, w are
    left: the plane through prefix + (l,) is W_l u - U_l w, and point j's
    side value is W_l U_j - U_l W_j.
    """
    p = len(ys[0]) - 1
    if rows is None:
        rows = [[y[a] for y in ys] for a in range(p + 1)]
    start = prefix[-1] + 1 if prefix else 0
    if len(prefix) == p - 1:
        uw = list(zip(*rows))
        for l in range(start, stop):
            ul, wl = uw[l]
            if not (ul or wl):
                yield prefix + (l,), None
                continue
            yield prefix + (l,), [wl * a - ul * b for a, b in uw]
        return
    for i in range(start, stop - (p - 1 - len(prefix))):
        r = next((k for k, row in enumerate(rows) if row[i]), None)
        if r is None:
            for rest in combinations(range(i + 1, stop), p - 1 - len(prefix)):
                yield prefix + (i,) + rest, None
            continue
        prow, piv = rows[r], rows[r][i]
        below = []
        for row in rows[:r] + rows[r + 1:]:
            f = row[i]
            # dividing by the previous pivot is exact (Bareiss)
            below.append([(piv * a - f * b) // prev for a, b in zip(row, prow)])
        yield from _prefix_walk(ys, stop, below, prefix + (i,), piv)


class Hull:
    """The facets of the convex hull of the points with homogeneous integer
    rows ys (``PointSet.rows``), from one ``_prefix_walk`` over every p-subset.

    A plane with a point off it and none on both sides is a facet; facets
    lists each once, in walk order, as its on-set (bit j for point j) and
    its first spanning subset.  Through any one point that is the order of
    their first spanning subsets through it too: of two facets, the one
    holding the least point of their symmetric difference comes first, as
    the points below it lie on both, span less than a plane, and it lies
    off the other.  A flat set (no plane has a point off it) has the facets
    of its ``_affine_chart`` on its ``_chart_axes`` (none if every point
    coincides) and its lineality: the kernel (a, c) of ys, the planes
    a.x + c = 0 holding every point.
    """

    def __init__(self, ys: Sequence[Sequence[int]]):
        self.width, self.rows = len(ys[0]), ys
        self.axes, self.lineality = range(self.width), []
        self.facets: list[tuple[int, tuple[int, ...]]] = []
        self._inward: dict[int, list[int]] = {}
        if not self._walk():
            self.axes = _chart_axes(ys, range(len(ys)))
            self.lineality = _nullspace(ys, self.width)
            self.rows = [[y[a] for a in self.axes] for y in ys]
            if len(self.axes) > 1:
                self._walk()

    def _walk(self) -> bool:
        """Record the facets of self.rows; False if no plane has a point off it."""
        full, seen = False, set()
        for s, sides in _prefix_walk(self.rows, len(self.rows)):
            lo, hi = (min(sides), max(sides)) if sides else (0, 0)
            full = full or lo < hi
            if lo < 0 < hi or lo == hi:
                continue
            on = sum(1 << j for j, v in enumerate(sides) if not v)
            if on not in seen:
                seen.add(on)
                self.facets.append((on, s))
        return full

    def inward(self, on: int, span: Sequence[int]) -> list[int]:
        """The primitive inward functional on ys, zero off the axes, of the
        facet with on-set on spanned by span: zero on on, positive off it."""
        if on not in self._inward:
            (v,) = _nullspace([self.rows[i] for i in span], len(self.axes))
            side = next(t for t in (sum(map(mul, v, y)) for y in self.rows) if t)
            g = gcd(*v) if side > 0 else -gcd(*v)
            self._inward[on] = c = [0] * self.width
            for a, t in zip(self.axes, v):
                c[a] = t // g
        return self._inward[on]


def _plane_signs(h: Hyperplane, ps: PointSet) -> list[int]:
    """The side of h = (a, b) of every point of ps, +1 above it: the sign
    of the integer a.X_j - b D_j on ps's rows (X_j, D_j)."""
    a = (*h.normal, -h.offset)
    return [(v > 0) - (v < 0) for v in (sum(map(mul, a, y)) for y in ps.rows)]
