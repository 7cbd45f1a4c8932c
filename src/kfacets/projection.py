"""Stereographic projection from a vertex, preserving per-vertex facet counts.

Projecting the remaining points from a vertex v onto a hyperplane parallel
to a strict supporting hyperplane at v puts the k-facets of the image in
bijection with the k-facets of the original set through v.  One census
sweep of the source set (``census``) gives its profile, its per-vertex
table and its hull facets with their inward functionals, so projecting
from each of its vertices walks the source set no further and solves no
kernel.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import InputError
from .facelab import face_certificate
from .facets import KFacetProfile, _degenerate, _normal, _sweep
from .geometry import Hull, PointSet


def stereographic_project(ps: PointSet, v: int) -> PointSet:
    """Project every point but ps[v] from ps[v] onto the plane a.u = 1,
    in coordinates u = x - ps[v] relative to the pole.

    Needs ps[v] to be a vertex: a.x = b is the strict face certificate of
    {v}, built with no LP from the set's hull facets (``PointSet.hull``,
    found once for every vertex, by ``census`` if it swept ps, which also
    leaves every facet's inward functional, so no kernel is solved), so the ray
    through x_j meets the plane at (x_j - x_v) / (a.x_j - b), which on the
    rows (X_j, D_j) of ``PointSet.rows`` is the image row
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
    cert = face_certificate(ps, (v,))
    if cert is None:
        raise InputError(f"point {v} is not a vertex of the convex hull")
    a, b = cert.hyperplane.normal, cert.hyperplane.offset
    *pole, dv = ps.rows[v]
    drop = max(range(ps.dim), key=lambda i: abs(a[i]))
    image = []
    for j, (*xs, dj) in enumerate(ps.rows):
        if j != v:
            image.append([dv * x - dj * p for i, (x, p) in enumerate(zip(xs, pole)) if i != drop]
                         + [dv * (sum(map(mul, a, xs)) - b * dj)])
    labels = tuple(ps.label(j) for j in range(ps.n) if j != v)
    return PointSet(ps.dim - 1, image, labels)


def census(ps: PointSet) -> tuple[KFacetProfile, tuple[tuple[int, ...], ...]]:
    """The k-facet profile of ps and its per-vertex table, table[v][k] the
    number of oriented k-facets whose spanning subset contains v, for every
    v and k = 0 .. n - p, read off one ``_sweep`` as ``k_facet_profile``
    reads it, which also leaves ps its hull for ``stereographic_project``.

    A leaf not in general position raises (``facets._degenerate``), so a
    set that gets through the sweep with n > p is full-dimensional and has
    exactly p points on each plane: the planes with no point on one side
    are its hull facets, each on-set its own span, in the walk order of
    ``Hull``.  The sweep is oriented, so each leaf also holds its plane's
    normal a (``facets._normal``), and each facet's primitive inward
    functional (a, c) is read off its leaf: c from the first point of its
    span, where a.X + c D vanishes, so the division by D is exact, and the
    sign that makes the other points positive.  They are installed as
    ``PointSet.hull`` with those functionals (``Hull.inward``) unless a hull
    is cached already; with n = p every plane holds every point, and the
    hull is left to ``Hull``'s flat-set path.
    """
    n, p = ps.n, ps.dim
    e = [0] * (n - p + 1)
    table = [[0] * (n - p + 1) for _ in range(n)]
    facets, inward = [], {}
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
            on = sum(1 << v for v in subset)
            facets.append((on, subset))
            inward[on] = [t // g for t in (*a, c)]
    if n > p:
        # the cached_property's own slot, which a frozen PointSet leaves writable
        vars(ps).setdefault("hull", Hull._known(ps.rows, facets, inward))
    return KFacetProfile(n=n, p=p, e=tuple(e)), tuple(map(tuple, table))

