"""Stereographic projection from a vertex, preserving per-vertex facet counts.

Projecting the remaining points from a vertex v onto a hyperplane parallel
to a strict supporting hyperplane at v puts the k-facets of the image in
bijection with the k-facets of the original set through v.  One census
sweep of the source set (``census``) gives its profile, its per-vertex
table and that strict plane of every vertex, built from the hull facets'
inward functionals read off the sweep's own leaves, so projecting from
each vertex walks the source set no further and solves no kernel.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import InputError
from .facelab import FaceCertificate, _kept_facets, _strict_plane, face_certificate
from .facets import KFacetProfile, _degenerate, _normal, _sweep
from .geometry import Hyperplane, PointSet


def stereographic_project(ps: PointSet, v: int, plane: Hyperplane | None) -> PointSet:
    """Project every point but ps[v] from ps[v] onto the plane a.u = 1,
    in coordinates u = x - ps[v] relative to the pole.

    plane is the strict plane a.x = b of {v} that ``census`` hands each
    vertex, None if ps[v] is not a vertex; it is checked by substitution.
    The ray through x_j meets the image plane at (x_j - x_v) / (a.x_j - b),
    which on the rows (X_j, D_j) of ``PointSet.rows`` is the image row
    (D_v X_j - D_j X_v, D_v (a.X_j - b D_j)).
    The image is returned in dim - 1 coordinates by dropping the axis with
    the largest absolute normal entry, an affine chart of the image
    hyperplane.  The image of a GLP set is GLP again; a caller that counts
    its k-facets sweeps it, which raises DegeneracyError if it is not.
    """
    if not 0 <= v < ps.n:
        raise InputError(f"vertex index {v} out of range")
    if ps.dim < 2:
        raise InputError(f"projection needs dim >= 2, got {ps.dim}")
    if plane is None:
        raise InputError(f"point {v} is not a vertex of the convex hull")
    if not FaceCertificate(plane, True).validate(ps, (v,)):
        raise RuntimeError("vertex plane failed substitution")
    a, b = plane.normal, plane.offset
    *pole, dv = ps.rows[v]
    drop = max(range(ps.dim), key=lambda i: abs(a[i]))
    image = []
    for j, (*xs, dj) in enumerate(ps.rows):
        if j != v:
            image.append([dv * x - dj * p for i, (x, p) in enumerate(zip(xs, pole)) if i != drop]
                         + [dv * (sum(map(mul, a, xs)) - b * dj)])
    labels = tuple(ps.label(j) for j in range(ps.n) if j != v)
    return PointSet(ps.dim - 1, image, labels)


def census(ps: PointSet) -> tuple[KFacetProfile, tuple[tuple[int, ...], ...],
                                  tuple[Hyperplane | None, ...]]:
    """(profile, table, planes): the k-facet profile of ps, its per-vertex
    table, table[v][k] the number of oriented k-facets whose spanning
    subset contains v, for every v and k = 0 .. n - p, and planes[v], the
    strict plane of {v} (``face_certificate``'s), or None if v is not a
    vertex, all read off one ``_sweep`` as ``k_facet_profile`` reads it.

    A leaf not in general position raises (``facets._degenerate``), so a
    set that gets through the sweep with n > p is full-dimensional and has
    exactly p points on each plane: the planes with no point on one side
    are its hull facets, each on-set its own span, in the walk order of
    ``Hull``.  The sweep is oriented, so each leaf also holds its plane's
    normal a (``facets._normal``), and each facet's primitive inward
    functional (a, c) is read off its leaf: c from the first point of its
    span, where a.X + c D vanishes, so the division by D is exact, and the
    sign that makes the other points positive.  Each vertex's plane sums
    the functionals of the facets that ``face_certificate`` keeps for it
    (``facelab._kept_facets``).  With n = p > 1 every plane holds every
    point, and each vertex's plane is ``face_certificate``'s on the flat
    hull.
    """
    n, p = ps.n, ps.dim
    e = [0] * (n - p + 1)
    table = [[0] * (n - p + 1) for _ in range(n)]
    facets = []
    width, walk = _sweep(ps, oriented=True)
    for subset, sides, ge0, positive in walk:
        pos, neg = positive.bit_count(), n - ge0.bit_count()
        if sides is None or pos + neg + p < n:
            _degenerate(subset, sides, ge0 ^ positive, width, n)
        e[pos] += 1
        e[neg] += 1
        for v in subset:
            row = table[v]
            row[pos] += 1
            row[neg] += 1
        if not (pos and neg):
            a = _normal(sides, width, n, p)
            *xs, d = ps.rows[subset[0]]
            c = -sum(map(mul, a, xs)) // d
            # primitive, and positive off the plane
            g = -gcd(*a, c) if neg else gcd(*a, c)
            facets.append((sum(1 << v for v in subset), [t // g for t in (*a, c)]))
    if n == p > 1:
        certs = (face_certificate(ps, (v,)) for v in range(n))
        planes = tuple(cert and cert.hyperplane for cert in certs)
    else:
        kept = (_kept_facets(facets, 1 << v) for v in range(n))
        planes = tuple(fs and _strict_plane(c for _, c in fs) for fs in kept)
    return KFacetProfile(n=n, p=p, e=tuple(e)), tuple(map(tuple, table)), planes
