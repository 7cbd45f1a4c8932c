"""Stereographic projection from a vertex, preserving per-vertex facet counts.

Projecting the remaining points from a vertex v onto a hyperplane parallel
to a strict supporting hyperplane at v puts the k-facets of the image in
bijection with the k-facets of the original set through v.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .facelab import face_certificate
from .facets import _sweep
from .geometry import PointSet


def stereographic_project(ps: PointSet, v: int) -> PointSet:
    """Project every point but ps[v] from ps[v] onto a far parallel chart.

    Needs ps[v] to be a vertex: the strict supporting hyperplane is the
    strict face certificate of {v}, built from the hull facets through
    ps[v] with no LP.  The image is returned in dim - 1 coordinates by
    dropping the axis with the largest absolute normal entry, an affine
    chart of the image hyperplane.  The image of a GLP set is GLP again; a caller that
    counts its k-facets sweeps it, which raises DegeneracyError if it is not.
    """
    if not 0 <= v < ps.n:
        raise InputError(f"vertex index {v} out of range")
    if ps.dim < 2:
        raise InputError(f"projection needs dim >= 2, got {ps.dim}")
    cert = face_certificate(ps, (v,))
    if cert is None:
        raise InputError(f"point {v} is not a vertex of the convex hull")
    h = cert.hyperplane
    pole = ps.points[v]
    # parallel hyperplane strictly beyond every point of the set
    far = max(sum(a * x for a, x in zip(h.normal, pt)) for pt in ps.points) + 1
    base = sum(a * x for a, x in zip(h.normal, pole))
    drop = max(range(ps.dim), key=lambda i: abs(h.normal[i]))
    image = []
    labels = []
    for i, pt in enumerate(ps.points):
        if i == v:
            continue
        level = sum(a * x for a, x in zip(h.normal, pt))
        tau = Fraction(far - base, level - base)
        proj = tuple(p + tau * (x - p) for p, x in zip(pole, pt))
        image.append(proj[:drop] + proj[drop + 1:])
        labels.append(ps.label(i))
    return PointSet(dim=ps.dim - 1, points=tuple(image), labels=tuple(labels))


def through_vertex_counts(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """table[v][k] = number of oriented k-facets of ps whose spanning subset
    contains v, for every v and k = 0 .. n - p, from one sweep."""
    table = [[0] * (ps.n - ps.dim + 1) for _ in range(ps.n)]
    for subset, pos, neg in _sweep(ps):
        for v in subset:
            row = table[v]
            row[pos] += 1
            row[neg] += 1
    return tuple(map(tuple, table))


def facets_through_vertex(ps: PointSet, v: int, k: int) -> int:
    """Number of oriented k-facets of ps whose spanning subset contains v."""
    if not 0 <= v < ps.n:
        raise InputError(f"vertex index {v} out of range")
    if ps.n < ps.dim:
        raise InputError(f"need at least dim = {ps.dim} points, got {ps.n}")
    if not 0 <= k <= ps.n - ps.dim:
        raise InputError(f"k must be in 0..{ps.n - ps.dim}, got {k}")
    return through_vertex_counts(ps)[v][k]
