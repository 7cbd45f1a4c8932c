"""Enumeration of k-facets and k-sets by exhaustive subset sweep.

The sweep clears denominators once (a positive per-axis scaling, which
changes no orientation, side, or separability predicate) so the inner loop
is pure integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterator, Sequence

from .errors import DegeneracyError, InputError
from .facelab import separation_hyperplane
from .geometry import PointSet, _int_hyperplane, _scaled_int_points, rank_int

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class OrientedFacet:
    """A spanning subset with a chosen side of its canonical hyperplane.

    ``sign`` +1 means the canonical (first-nonzero-positive, primitive
    integer normal) orientation; ``k`` is the number of points strictly on
    the chosen positive side.
    """

    indices: tuple[int, ...]
    sign: int
    k: int


@dataclass(frozen=True)
class KFacetProfile:
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


@dataclass(frozen=True)
class KSetFamily:
    k: int
    sets: tuple[tuple[int, ...], ...]


def _classify(pts: Sequence[IntPoint], subset: tuple[int, ...]) -> tuple[int, int]:
    """(positive, negative) counts against the canonical hyperplane of subset."""
    plane = _int_hyperplane(pts, subset)
    if plane is None:
        raise DegeneracyError(
            f"degenerate facet candidate: points {subset} are affinely dependent",
            subset)
    normal, offset = plane
    pos = neg = on = 0
    extra = -1
    for i, pt in enumerate(pts):
        v = sum(map(mul, normal, pt)) - offset
        if v > 0:
            pos += 1
        elif v < 0:
            neg += 1
        else:
            on += 1
            if i not in subset:
                extra = i
    if on > len(subset):
        witness = tuple(sorted(subset + (extra,)))
        raise DegeneracyError(
            f"not in general linear position: points {witness} lie on one hyperplane",
            witness)
    return pos, neg


def _sweep(ps: PointSet) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield (subset, positives, negatives) for every p-subset, in subset order."""
    n, p = ps.n, ps.dim
    if n < p:
        raise InputError(f"need at least dim = {p} points, got {n}")
    pts = _scaled_int_points(ps)
    for s in combinations(range(n), p):
        yield (s,) + _classify(pts, s)


def k_facet_profile(ps: PointSet) -> KFacetProfile:
    """Counts e[k] of oriented k-facets for k = 0 .. n - p.

    Every spanning p-subset contributes both orientations, so sum(e) is
    2 * C(n, p).  Raises DegeneracyError on any general-position violation.
    """
    n, p = ps.n, ps.dim
    if n < p:
        raise InputError(f"need at least dim = {p} points, got {n}")
    e = [0] * (n - p + 1)
    for _, pos, neg in _sweep(ps):
        e[pos] += 1
        e[neg] += 1
    return KFacetProfile(n=n, p=p, e=tuple(e))


def enumerate_k_facets(ps: PointSet, k: int) -> list[OrientedFacet]:
    """All oriented facets with exactly k points strictly on the positive side."""
    n, p = ps.n, ps.dim
    if not 0 <= k <= n - p:
        raise InputError(f"k must be in 0..{n - p}, got {k}")
    out = []
    for subset, pos, neg in _sweep(ps):
        if pos == k:
            out.append(OrientedFacet(indices=subset, sign=1, k=k))
        if neg == k:
            out.append(OrientedFacet(indices=subset, sign=-1, k=k))
    return out


def count_unoriented_halving(ps: PointSet) -> int:
    """Number of unoriented halving facets; needs n - p even."""
    return k_facet_profile(ps).unoriented_halving()


def _k_sets(ps: PointSet, sizes: Sequence[int]) -> dict[int, tuple[tuple[int, ...], ...]]:
    """The k-sets of ps for every k in sizes, from one sweep.

    Candidates come from sweeping hyperplanes through spanning p-subsets and
    combining each side's strict points with boundary subsets.  If the sweep
    meets no degeneracy (no affinely dependent p-subset and no hyperplane
    through more than p points) the set is in general linear position, and
    every candidate is a k-set: the p boundary points are affinely
    independent, so a small tilt of the hyperplane puts any chosen subset of
    them on either side (the k-set / j-facet correspondence of Andrzejak,
    Aronov, Har-Peled, Seidel and Welzl, SoCG 1998).  Otherwise every
    candidate is confirmed by the margin LP.
    """
    n, p = ps.n, ps.dim
    pts = _scaled_int_points(ps)
    found: dict[int, set[tuple[int, ...]]] = {k: set() for k in sizes}
    rank = rank_int([[a - b for a, b in zip(pt, pts[0])] for pt in pts[1:]])
    glp = rank == p
    if not glp:
        # the whole set lies in a hyperplane: every k-subset is a boundary
        # combination of such a hyperplane, so all of them are candidates
        for k, cands in found.items():
            cands.update(combinations(range(n), k))
    else:
        for subset in combinations(range(n), p):
            plane = _int_hyperplane(pts, subset)
            if plane is None:
                glp = False
                continue
            normal, offset = plane
            pos_idx, neg_idx, on_idx = [], [], []
            for i, pt in enumerate(pts):
                v = sum(map(mul, normal, pt)) - offset
                (pos_idx if v > 0 else neg_idx if v < 0 else on_idx).append(i)
            if len(on_idx) > p:
                glp = False
            for strict_side in (pos_idx, neg_idx):
                for need in range(len(on_idx) + 1):
                    cands = found.get(len(strict_side) + need)
                    if cands is not None:
                        for extra in combinations(on_idx, need):
                            cands.add(tuple(sorted(strict_side + list(extra))))
    if glp:
        return {k: tuple(sorted(cands)) for k, cands in found.items()}
    scaled = PointSet(p, tuple(tuple(Fraction(c) for c in pt) for pt in pts))
    return {k: tuple(s for s in sorted(cands) if separation_hyperplane(scaled, s) is not None)
            for k, cands in found.items()}


def enumerate_k_sets(ps: PointSet, k: int) -> KSetFamily:
    """All k-subsets strictly separable from their complement by a hyperplane.

    General linear position is not required; see ``_k_sets``.
    """
    if not 1 <= k <= ps.n - 1:
        raise InputError(f"k must be in 1..{ps.n - 1}, got {k}")
    return KSetFamily(k=k, sets=_k_sets(ps, (k,))[k])


def k_set_counts(ps: PointSet) -> tuple[int, ...]:
    """a[k] = number of k-sets, for k = 1 .. n - 1, from one sweep."""
    return tuple(len(sets) for sets in _k_sets(ps, range(1, ps.n)).values())
