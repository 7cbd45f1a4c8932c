"""Exact affine geometry over the rationals.

A ``PointSet`` stores each point x_j once, as its homogeneous integer row
(X_j, D_j) = (D_j x_j, D_j): the one coprime multiple of (x_j, 1) with
D_j > 0, which no side or zero can tell apart from it.  The point's
``fractions.Fraction`` coordinates X_j / D_j are read off that row.  A
``Hyperplane`` is likewise its coprime integer form, and a point's side of
it is the sign of one integer, a.X - b D on its row, so every predicate is
decided by integer signs.  The sweep over spanning subsets (``_packed_walk``)
packs each functional's values at every point into one int, so a side
census is a few masks and popcounts.  No decision path has floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .errors import InputError

Point = tuple[Fraction, ...]

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def rational(value) -> Fraction:
    """Parse a scalar as an exact rational.

    Accepts ints, Fractions, and strings of an optional sign, then ASCII
    digits, then optionally ``/digits`` or ``.digits``: ``"3"``, ``"+3"``,
    ``"-3/4"``, ``"0.25"`` (decimals are exact, never binary-float
    approximations).  Nothing else of Python's ``Fraction`` grammar passes:
    no spaces, no underscores, no ``".5"``.  Exponent notation is refused
    with its own message: ``"1e999999999"`` would expand to a billion-digit
    integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise InputError(f"cannot parse rational from {value!r}: no exponents")
        if not _RATIONAL.fullmatch(value):
            raise InputError(f"cannot parse rational from {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise InputError(
            f"refusing float {value!r}: pass a string or Fraction for exactness"
        )
    raise InputError(f"cannot parse rational from {value!r}")


class _Record:
    """A record whose plain ``__init__`` normalizes its fields, its class
    annotations in order, and stores them once (``_store``).  It equals a
    record of its own class with equal fields and hashes as their tuple,
    refuses assignment and deletion, and prints as Name(field=value, ...)."""

    def _store(self, *values):
        self.__dict__.update(zip(self.__annotations__, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = map("{}={!r}".format, self.__annotations__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"


class PointSet(_Record):
    """An ordered list of labelled points sharing one ambient dimension,
    stored as their homogeneous integer rows (X_j, D_j), D_j > 0, each
    reduced by its gcd on construction."""

    dim: int
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None

    def __init__(self, dim, rows, labels=None):
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        prim = []
        for i, row in enumerate(rows):
            if len(row) != dim + 1:
                raise InputError(
                    f"point {i} has {len(row) - 1} coordinates, expected {dim}")
            # a weight D <= 0 would flip, or lose, every side of the point
            if row[-1] <= 0:
                raise InputError(f"point {i} has weight {row[-1]}, expected > 0")
            g = gcd(*row)
            prim.append(tuple(v // g for v in row))
        if labels is not None and len(labels) != len(prim):
            raise InputError("labels must match points one to one")
        self._store(dim, tuple(prim), labels)

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
        """The facets of the set's convex hull, walked once (``Hull``)."""
        return Hull(self.rows)


def point_set(rows: Sequence[Sequence], labels: Sequence[str] | None = None) -> PointSet:
    """Build a PointSet, coercing every coordinate through ``rational``."""
    pts = [[rational(c) for c in row] for row in rows]
    if not pts:
        raise InputError("point set needs at least one point")
    return PointSet(dim=len(pts[0]), rows=_int_rows([(*pt, 1) for pt in pts]),
                    labels=tuple(labels) if labels is not None else None)


class Hyperplane(_Record):
    """Oriented hyperplane ``normal . x = offset``; positive side is ``> offset``.

    Built from ints or rationals, it keeps the coprime integers (a, b) that
    are a positive multiple of (normal, offset), so two forms of one
    oriented plane are equal.
    """

    normal: tuple[int, ...]
    offset: int

    def __init__(self, normal, offset):
        row = (*normal, offset)
        *a, b = row if all(type(v) is int for v in row) else _int_rows([row])[0]
        if not any(a):
            raise InputError("hyperplane normal must be nonzero")
        g = gcd(*a, b)
        self._store(tuple(v // g for v in a), b // g)


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


def is_general_linear_position(ps: PointSet) -> bool:
    """True iff no dim + 1 points of ps are affinely dependent.

    For n <= dim this degenerates to affine independence of all points.
    Each (dim + 1)-subset is a dim-subset of range(n - 1) from
    ``_packed_walk`` plus a later index, dependent when the dim-subset is
    or when the later point's side value is 0, a zero flag above field s[-1].
    """
    n, p = ps.n, ps.dim
    if n <= p:
        return rank_int(ps.rows) == n
    width, top, low = _packing(ps.rows, n)
    for s, sides, ge0, positive in _packed_walk(ps.rows, n - 1, width, top, low):
        if sides is None or (ge0 ^ positive) >> width * (s[-1] + 1):
            return False
    return True


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


def _packing(ys: Sequence[Sequence[int]], count: int) -> tuple[int, int, int]:
    """(B, TOP, LOW) of ``_packed_walk`` over the integer rows ys: the field
    width, and the top bit and the bits below it of each of the first count
    fields.  Every value the walk stores or reads is, up to sign, a minor of
    order <= k = p + 1 of ys (Bareiss pivots and entries, and a leaf, the sum
    of the cofactor rows X, Y, Z times a column divided by the squared pivot,
    by Sylvester's identity); a pivot's products and X, Y, Z may overflow a
    field, but are only multiplied and divided exactly, never read, so the
    pair leaves need no wider field.  By Hadamard's inequality on columns,
    each minor is below H = isqrt(k^k prod(M_c^2)) + 1, M_c the largest
    |entry| of column c (1 if all are 0): every factor sqrt(k) M_c is >= 1,
    so columns left out only shrink it.  B = bit_length(H) + 1, rounded up
    to whole bytes, keeps |v| < 2^(B - 1).  It fits lifts, where x sits
    beside x^2 and the weight 1, far better than the row form (the k
    largest row norms); that is narrower only when one row dwarfs the rest,
    or on small grids, where sqrt(k) outweighs entries of 1 or 2."""
    k = len(ys[0])
    bound = k ** k * prod(max(map(abs, col)) or 1 for col in zip(*ys)) ** 2
    width = ((isqrt(bound) + 1).bit_length() + 8) // 8 * 8
    ones = ((1 << width * count) - 1) // ((1 << width) - 1)
    return width, ones << width - 1, (ones << width - 1) - ones


def _pivot(rows: list[int], shifted: list[int], i: int, width: int, prev: int):
    """One fraction-free (Bareiss) pivot of the packed functionals rows
    (``_packed_walk``; shifted: each row + TOP) on field i, at the first row
    nonzero there: the other rows, in order, now zero at y_i too, and the
    pivot, the next step's prev; None if every row is zero at y_i."""
    at, mask, half = width * i, (1 << width) - 1, 1 << width - 1
    col = [(row >> at & mask) - half for row in shifted]
    for r, piv in enumerate(col):
        if piv:
            # dividing by the previous pivot is exact (Bareiss)
            return [(piv * row - f * rows[r]) // prev for k, (row, f) in enumerate(zip(rows, col))
                    if k != r], piv
    return None


def _packed_walk(ys: Sequence[Sequence[int]], stop: int, width: int, top: int,
                 low: int) -> Iterator[tuple[tuple[int, ...], int | None, int, int]]:
    """(s, S, GE0, POS) for every dim-subset s of range(stop), in
    lexicographic order, of the points with homogeneous integer rows ys
    (``PointSet.rows``).  S is None if the points s are affinely dependent,
    else a functional that vanishes on s, packed as the int sum of
    v_j 2^(B j) over every y_j, v_j the determinant of the rows s + (j,) up
    to one sign per s; (B, TOP, LOW) = (width, top, low) from ``_packing``
    over count >= stop fields.  The walk keeps no orientation; a caller that
    needs one appends the axis directions (e_i, 0), whose values are the
    plane's normal.  x = S + TOP has the base-2^B digits v_j + 2^(B - 1) for
    j < count, so v_j is (x >> B j & (2^B - 1)) - 2^(B - 1); the side census
    of those points is GE0 = x & TOP, whose top bit of field j says v_j >= 0,
    and POS = GE0 & ((x & LOW) + LOW), v_j > 0: GE0 ^ POS flags the zeros.

    A row is a linear functional, kept as its packed values at every y_j.
    Appending i to the prefix is one fraction-free (Bareiss) pivot on field
    i (``_pivot``, which the Veronese certifier also takes), shared by every
    subset below that prefix: two whole-row products, a difference and an
    exact division.  No pivot means y_i is dependent on the prefix.  The
    pivots stop at the (dim - 2)-prefixes, which hold three
    rows a, b, c and the last pivot P, and give both last points i < l at
    once (Bareiss's multistep elimination): the cofactor rows X = C_i b -
    B_i c, Y = A_i c - C_i a and Z = B_i a - A_i b are formed once per i,
    and the plane through prefix + (i, l) is (A_l X + B_l Y + C_l Z) / P^2,
    by Sylvester's identity: three whole-row products and one exact
    division per leaf.  Only S = 0 asks whether the pair is dependent: y_i
    on the prefix's span, or y_l on that of the prefix and y_i, makes the
    cross product of their columns (A, B, C) zero.  In dim 1 the two rows
    u, w of the empty prefix give the plane through (l,) as W_l u - U_l w;
    the weight W_l of every walked point is positive, so none is dependent.
    Each sweep reads these leaves itself, ``facets._sweep``'s readers too.
    """
    p = len(ys[0]) - 1
    mask, half = (1 << width) - 1, 1 << width - 1
    rows = [sum(y[a] << width * j for j, y in enumerate(ys)) for a in range(p + 1)]
    # the prefixes depth first, each as (prefix, rows, prev); rows is None
    # below a dependent prefix
    stack = [((), rows, 1)]
    while stack:
        prefix, rows, prev = stack.pop()
        first = prefix[-1] + 1 if prefix else 0
        if rows is None:
            for rest in combinations(range(first, stop), p - len(prefix)):
                yield prefix + rest, None, 0, 0
        elif len(prefix) < p - 2:
            shifted = [row + top for row in rows]
            stack += reversed([(prefix + (i,), *(_pivot(rows, shifted, i, width, prev)
                                                  or (None, prev)))
                               for i in range(first, stop - (p - 1 - len(prefix)))])
        elif p == 1:
            u, w = rows
            x, z = u + top, w + top
            for l in range(stop):
                ul, wl = (x >> width * l & mask) - half, (z >> width * l & mask) - half
                sides = wl * u - ul * w
                ge0 = (c := sides + top) & top
                yield (l,), sides, ge0, ge0 & (c & low) + low
        else:
            a, b, c = rows
            ta, tb, tc = a + top, b + top, c + top
            cols = [((ta >> k & mask) - half, (tb >> k & mask) - half, (tc >> k & mask) - half)
                    for k in range(width * first, width * stop, width)]
            square = prev * prev
            for i, (ai, bi, ci) in enumerate(cols[:-1], first):
                # X, Y, Z may overflow a field: only multiplied and divided exactly
                x, y, z, head = ci * b - bi * c, ai * c - ci * a, bi * a - ai * b, prefix + (i,)
                for l, (al, bl, cl) in enumerate(cols[i - first + 1:], i + 1):
                    sides = (al * x + bl * y + cl * z) // square
                    if not (sides or bi * cl - ci * bl or ci * al - ai * cl or ai * bl - bi * al):
                        yield head + (l,), None, 0, 0
                        continue
                    ge0 = (t := sides + top) & top
                    yield head + (l,), sides, ge0, ge0 & (t & low) + low


class Hull:
    """The facets of the convex hull of the points with homogeneous integer
    rows ys (``PointSet.rows``), from one ``_packed_walk`` over every p-subset.

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
        self.facets, self._inward = [], {}
        if not self._walk():
            self.axes = _chart_axes(ys, range(len(ys)))
            self.lineality = _nullspace(ys, self.width)
            self.rows = [[y[a] for a in self.axes] for y in ys]
            if len(self.axes) > 1:
                self._walk()

    def _walk(self) -> bool:
        """Record the facets of self.rows; False if no plane has a point off it."""
        n, full, seen = len(self.rows), False, set()
        width, top, low = _packing(self.rows, n)
        for s, sides, ge0, positive in _packed_walk(self.rows, n, width, top, low):
            if not sides:
                # dependent, or every point on the plane
                continue
            full = True
            if positive and ge0 != top:
                # points on both sides
                continue
            zeros = ge0 ^ positive
            if zeros not in seen:
                seen.add(zeros)
                flags = (zeros >> width * j + width - 1 & 1 for j in range(n))
                self.facets.append((sum(f << j for j, f in enumerate(flags)), s))
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

