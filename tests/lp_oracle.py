"""The general margin LP, kept as the reference the engine's face answers
are checked against.

``margin_lp`` finds a plane a.x = b, normalized by -1 <= a_i <= 1, with each
given point on it, above it or below it.  Strict queries maximize a margin
t (a.x >= b + t above, a.x <= b - t below) and succeed iff the optimum is
positive; weak queries (t = 0) need a nonzero normal, obtained by
maximizing +-a_i in turn until one coordinate comes out nonzero.  A face
puts its subset on the plane and the other points below it (the
certificate's plane is the flipped one); a strict separation puts the subset
above and the rest below, a weak separation one group below and the other
above.  Every answer is checked by raw ``Fraction`` substitution.
"""

from fractions import Fraction
from operator import neg

from kfacets.errors import InputError
from kfacets.geometry import Hyperplane, PointSet
from kfacets.simplex import maximize

# a constraint's relation to the plane a.x = b
BELOW, ON, ABOVE = -1, 0, 1


def margin_lp(dim, constraints, strict):
    """The plane a.x = b, a in the box -1 <= a_i <= 1, with each point in
    the given relation to it, or None: ON is a.x = b, ABOVE a.x >= b + t and
    BELOW a.x <= b - t.

    Each point comes as its homogeneous integer row (X, D) = (D x, D) of
    ``PointSet.rows``, so every LP row is an integer row: BELOW is
    a.X - b D + t D <= 0, ABOVE its negation in a and b, and ON the pair
    a.X - b D <= 0, -a.X + b D <= 0, in that order.  Rows follow the
    constraints in order; the box rows come last.  Variables are a, b and,
    if strict, t.
    """
    rows = []
    for (*xs, den), rel in constraints:
        tail = [0 if rel == ON else den] if strict else []
        if rel <= ON:
            rows.append(([*xs, -den, *tail], 0))
        if rel >= ON:
            rows.append(([*map(neg, xs), den, *tail], 0))
    width = dim + 2 if strict else dim + 1
    for l in range(dim):
        e = [0] * width
        e[l] = 1
        rows.append((e, 1))
        rows.append(([-c for c in e], 1))
    if strict:
        objectives = [[0] * (dim + 1) + [1]]
    else:
        objectives = [[sigma if j == l else 0 for j in range(width)]
                      for l in range(dim) for sigma in (1, -1)]
    for objective in objectives:
        value, x = maximize(objective, rows)
        if value > 0:
            return Hyperplane(tuple(x[:dim]), x[dim])
    return None


def _sides(h, points):
    """The sign of a.x - b at each point x, for h = (a, b), in Fraction
    arithmetic."""
    values = (sum(Fraction(a) * x for a, x in zip(h.normal, pt)) - h.offset for pt in points)
    return [(v > 0) - (v < 0) for v in values]


def lp_face(ps: PointSet, subset, strict=True):
    """The plane of the margin LP's (strict) face certificate for subset,
    with the other points on its positive side, or None."""
    chosen = set(subset)
    h = margin_lp(ps.dim, [(ps.rows[i], ON) for i in subset]
                  + [(y, BELOW) for j, y in enumerate(ps.rows) if j not in chosen],
                  strict)
    if h is None:
        return None
    least = 1 if strict else 0
    assert all(s == 0 if i in chosen else -s >= least
               for i, s in enumerate(_sides(h, ps.points)))
    return Hyperplane(tuple(map(neg, h.normal)), -h.offset)


def separation_hyperplane(ps: PointSet, subset):
    """Hyperplane with ``subset`` strictly positive and the rest strictly
    negative, or None if no such hyperplane exists."""
    idx = tuple(subset)
    if not 0 < len(set(idx)) < ps.n:
        raise InputError("separation needs a nonempty proper subset")
    chosen = set(idx)
    h = margin_lp(ps.dim, [(ps.rows[i], ABOVE) for i in idx]
                  + [(y, BELOW) for j, y in enumerate(ps.rows) if j not in chosen],
                  strict=True)
    if h is not None:
        assert _sides(h, ps.points) == [1 if i in chosen else -1 for i in range(ps.n)]
    return h


def strictly_separable(ps: PointSet, subset) -> bool:
    return separation_hyperplane(ps, subset) is not None


def weak_separation(q: PointSet, r: PointSet):
    """Nonzero hyperplane with q on its <= side and r on its >= side, or None."""
    if q.dim != r.dim:
        raise InputError("point sets must share ambient dimension")
    h = margin_lp(q.dim, [(y, BELOW) for y in q.rows]
                  + [(y, ABOVE) for y in r.rows], strict=False)
    if h is not None:
        assert 1 not in _sides(h, q.points) and -1 not in _sides(h, r.points)
    return h
