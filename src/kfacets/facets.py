"""Enumeration of k-facets and k-sets by exhaustive subset sweep.

The sweep reads each point as its cached homogeneous integer row
(``PointSet.rows``) through ``geometry._packed_walk``, which packs a
functional's values at every point into one int: a plane's side counts
are popcounts of its census flags, and no list is built per plane.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DegeneracyError, InputError
from .geometry import PointSet, _affine_chart, _packed_walk, _packing


class OrientedFacet(NamedTuple):
    """A spanning subset with a chosen side of its canonical hyperplane.

    ``sign`` +1 means the canonical orientation, whose normal has its first
    nonzero entry positive; ``k`` is the number of points strictly on the
    chosen positive side.
    """

    indices: tuple[int, ...]
    sign: int
    k: int


class KFacetProfile(NamedTuple):
    n: int
    p: int
    e: tuple[int, ...]  # e[k] for k = 0 .. n - p

    def halving_level(self) -> int:
        if (self.n - self.p) % 2:
            raise InputError(
                f"no halving level: n - p = {self.n - self.p} is odd")
        return (self.n - self.p) // 2

    def unoriented_halving(self) -> int:
        """Number of unoriented halving facets; needs n - p even."""
        # a facet halves iff both its orientations sit at the halving level
        return self.e[self.halving_level()] // 2


class KSetFamily(NamedTuple):
    k: int
    sets: tuple[tuple[int, ...], ...]


def _sweep(ps: PointSet, oriented: bool = False):
    """(B, walk): the field width and the ``_packed_walk`` over the p-subsets
    of ps, whose leaves (s, S, GE0, POS) a reader counts as pos, neg =
    POS.bit_count(), n - GE0.bit_count(), raising through ``_degenerate`` if
    S is None or pos + neg + p < n; if oriented, S < 0 swaps pos and neg,
    and S also holds the plane's normal (``_normal``)."""
    n, p = ps.n, ps.dim
    if n < p:
        raise InputError(f"need at least dim = {p} points, got {n}")
    ys = ps.rows
    if oriented:
        # the values at the axis directions (e_i, 0) are the normal; last axis
        # first, its first nonzero entry is the top field: the packed sign
        ys += tuple(tuple(int(a == b) for b in range(p + 1)) for a in reversed(range(p)))
    width, top, low = _packing(ys, n)
    return width, _packed_walk(ys, n, width, top, low)


def _normal(sides: int, width: int, n: int, p: int) -> list[int]:
    """The normal a of the plane of an oriented ``_sweep`` leaf S = sides over
    n points in dim p: a_i is the field n + p - 1 - i, past the points',
    decoded as every packed read decodes a field (``_packed_walk``), on
    x = S + TOP over all n + p fields."""
    mask, half = (1 << width) - 1, 1 << width - 1
    x = sides + (((1 << width * (n + p)) - 1) // mask << width - 1)
    return [(x >> width * (n + p - 1 - i) & mask) - half for i in range(p)]


def _degenerate(s: tuple[int, ...], sides: int | None, zeros: int, width: int, n: int):
    """Raise the DegeneracyError of a ``_sweep`` leaf s: s is dependent if
    sides is None, else the last other point flagged in zeros is on its plane."""
    if sides is None:
        raise DegeneracyError(
            f"degenerate facet candidate: points {s} are affinely dependent", s)
    # the census covers the points only: a normal entry can be 0
    extra = max(j for j in range(n) if zeros >> width * j + width - 1 & 1 and j not in s)
    witness = tuple(sorted(s + (extra,)))
    raise DegeneracyError(
        f"not in general linear position: points {witness} lie on one hyperplane", witness)


def k_facet_profile(ps: PointSet) -> KFacetProfile:
    """Counts e[k] of oriented k-facets for k = 0 .. n - p.

    Every spanning p-subset contributes both orientations, so sum(e) is
    2 * C(n, p).  Raises DegeneracyError on any general-position violation.
    """
    n, p = ps.n, ps.dim
    e = [0] * (n - p + 1)
    width, walk = _sweep(ps)
    for subset, sides, ge0, positive in walk:
        pos, neg = positive.bit_count(), n - ge0.bit_count()
        if sides is None or pos + neg + p < n:
            _degenerate(subset, sides, ge0 ^ positive, width, n)
        e[pos] += 1
        e[neg] += 1
    return KFacetProfile(n=n, p=p, e=tuple(e))


def enumerate_k_facets(ps: PointSet, k: int) -> tuple[KFacetProfile, list[OrientedFacet]]:
    """The k-facet profile, and all oriented facets with exactly k points
    strictly on the positive side, from one oriented walk."""
    n, p = ps.n, ps.dim
    if n >= p and not 0 <= k <= n - p:  # too few points are _sweep's to refuse
        raise InputError(f"k must be in 0..{n - p}, got {k}")
    e, out = [0] * (n - p + 1), []
    width, walk = _sweep(ps, oriented=True)
    for subset, sides, ge0, positive in walk:
        pos, neg = positive.bit_count(), n - ge0.bit_count()
        if sides is None or pos + neg + p < n:
            _degenerate(subset, sides, ge0 ^ positive, width, n)
        e[pos] += 1
        e[neg] += 1
        if sides < 0:
            pos, neg = neg, pos
        if pos == k:
            out.append(OrientedFacet(indices=subset, sign=1, k=k))
        if neg == k:
            out.append(OrientedFacet(indices=subset, sign=-1, k=k))
    return KFacetProfile(n=n, p=p, e=tuple(e)), out


def _separable(ys: Sequence[Sequence[int]], idx: tuple[int, ...],
               memo: dict[tuple[int, ...], set[int]], dim: int | None = None) -> set[int]:
    """Every B within idx, the empty one and idx included, that some
    hyperplane strictly separates from the rest of idx inside aff(idx), for
    the points with homogeneous integer rows ys (``PointSet.rows``); each B
    is a bitmask over the global indices (bit i is point i).

    dim is dim aff(idx).  The whole set leaves it None and learns it from
    ``_affine_chart``; a recursed flat takes it from its parent, as below.
    If dim is 0, every point coincides and only the empty set and idx are
    separable.  If dim is 1, a hyperplane of the line is a point, so the
    rest are the points strictly below and strictly above each point t of
    idx, on an axis a along which they differ: X_j,a D_t < X_t,a D_j, every
    D positive.  Otherwise idx is moved into its chart, and the sweep runs
    in dim coordinates over hyperplanes H through dim independent points.
    Lemma: if H has strict sides P+ and P- and on-set T, and B' lies in T,
    then P+ with B' added is separable iff B' is separable from T minus B'
    inside aff(T).  (If: tilt H by a small multiple of any extension of that
    separator.  Only if: restrict the separator to aff(T).)  Every separable
    B arises so, from a separator slid until it rests on dim independent
    points.  An on-set of exactly dim points is independent, so all its
    subsets count (the k-set / j-facet correspondence of Andrzejak, Aronov,
    Har-Peled, Seidel and Welzl, SoCG 1998); a larger one holds the dim
    independent points that span H, so its hull is H and it recurses with
    dimension dim - 1, memoised on its index tuple.
    """
    if idx in memo:
        return memo[idx]
    out = {0, sum(1 << i for i in idx)}
    if dim is None or dim > 1:
        chart = _affine_chart(ys, idx)
        dim = len(chart[0]) - 1
    if dim == 1:
        x0 = ys[idx[0]]
        a = next(a for a in range(len(x0) - 1)
                 if any(ys[j][a] * x0[-1] != x0[a] * ys[j][-1] for j in idx))
        keys = [(j, ys[j][a], ys[j][-1]) for j in idx]
        for _, x, w in keys:
            out.add(sum(1 << j for j, y, v in keys if y * w < x * v))
            out.add(sum(1 << j for j, y, v in keys if y * w > x * v))
    elif dim:
        seen, m = set(), len(idx)
        width, top, low = _packing(chart, m)
        b = width // 8
        for _, sides, ge0, positive in _packed_walk(chart, m, width, top, low):
            if sides is None:
                continue
            zeros = ge0 ^ positive
            if zeros.bit_count() != dim:
                if zeros in seen:
                    continue
                seen.add(zeros)
            pos, neg, on = 0, 0, []
            # the top byte of field j: 0x80 above the plane, 0x40 on it
            for i, c in zip(idx, (positive | zeros >> 1).to_bytes(m * b, "little")[b - 1::b]):
                if c > 0x40:
                    pos |= 1 << i
                elif c:
                    on.append(i)
                else:
                    neg |= 1 << i
            if len(on) == dim:
                parts = [0]
                for i in on:
                    parts += [q | 1 << i for q in parts]
            else:
                parts = _separable(ys, tuple(on), memo, dim - 1)
            out.update(map(pos.__or__, parts))
            out.update(map(neg.__or__, parts))
    memo[idx] = out
    return out


def enumerate_k_sets(ps: PointSet, k: int) -> KSetFamily:
    """All k-subsets strictly separable from their complement by a hyperplane,
    from ``_separable``: no LP, and general linear position is not required."""
    if not 1 <= k <= ps.n - 1:
        raise InputError(f"k must be in 1..{ps.n - 1}, got {k}")
    sets = (tuple(i for i in range(ps.n) if s >> i & 1)
            for s in _separable(ps.rows, tuple(range(ps.n)), {}) if s.bit_count() == k)
    return KSetFamily(k=k, sets=tuple(sorted(sets)))


def k_set_counts(ps: PointSet) -> tuple[int, ...]:
    """a[k] = number of k-sets, for k = 1 .. n - 1, from one sweep.

    In dim <= 3 with n > dim the counts are read off ``k_facet_profile``,
    which holds no set of masks: on a set in general linear position,
    a_k = e_(k-1) in dims 1 and 2 (in the plane, Erdos, Lovasz, Simmons
    and Straus 1973) and a_k = (e_(k-1) + e_(k-2)) / 2 + 2 in dim 3
    (Andrzejak, Aronov, Har-Peled, Seidel and Welzl, SoCG 1998), with
    e_j = 0 outside 0..n-p.  If the profile raises DegeneracyError, and for
    dim >= 4 or n <= dim, the counts are tallied from ``_separable``.
    """
    n, p = ps.n, ps.dim
    if p <= 3 and n > p:
        try:
            e = k_facet_profile(ps).e
        except DegeneracyError:
            pass
        else:
            if p < 3:
                return e[:n - 1]
            z = (0,) + e + (0,)
            return tuple((x + y) // 2 + 2 for x, y in zip(z, z[1:]))
    a = [0] * (n + 1)
    for s in _separable(ps.rows, tuple(range(n)), {}):
        a[s.bit_count()] += 1
    return tuple(a[1:-1])
