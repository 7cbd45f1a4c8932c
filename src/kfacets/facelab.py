"""Face certificates, separation oracles, and Radon partitions.

Whether a subset is a face is read off the facets of the hull, exactly and
with integers (``_hull_face``): a "no" needs no LP, and the LP below only
builds a face certificate that is known to exist.

Every LP query is posed by one builder, ``_margin_lp``: find a plane
a.x = b, normalized by -1 <= a_i <= 1, with each given point on it, above
it or below it.  Strict queries maximize a margin t (a.x >= b + t above,
a.x <= b - t below) and succeed iff the optimum is positive; weak queries
(t = 0) need a nonzero normal, obtained by maximizing +-a_i in turn until
one coordinate comes out nonzero.  A face puts its subset on the plane and
the other points below it (the certificate is the flipped plane); a strict
separation puts the subset above and the rest below, a weak separation one
group below and the other above.  Returned certificates always re-verify by
direct substitution.

For the even-degree Veronese lift and the neighborly embedding, strict face
certificates are also built directly, as squares of polynomials that vanish
on the subset only; those builders need no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod
from operator import add, mul, neg
from typing import Sequence

from .errors import DegeneracyError, InputError
from .geometry import (Hyperplane, Point, PointSet, _affine_chart, _int_rows, _nullspace,
                       _plane_signs, _prefix_walk, violating_subset)
from .liftmaps import _veronese_exponents
from .simplex import maximize

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FaceCertificate:
    """Hyperplane containing a subset with all other points on the positive side."""

    hyperplane: Hyperplane
    strict: bool

    def validate(self, ps: PointSet, subset: Sequence[int]) -> bool:
        """Exact substitution check against the set the certificate is for."""
        chosen = set(subset)
        least = 1 if self.strict else 0
        return all(v == 0 if i in chosen else v >= least
                   for i, v in enumerate(_plane_signs(self.hyperplane, ps)))


@dataclass(frozen=True)
class RadonWitness:
    """Partition (Q, R) of a (dim+2)-point set with intersecting hulls.

    ``lambdas`` holds, per point, its convex coefficient within its own part;
    both parts' combinations equal ``common_point``.
    """

    part_q: tuple[int, ...]
    part_r: tuple[int, ...]
    lambdas: tuple[Fraction, ...]
    common_point: Point

    def validate(self, ps: PointSet) -> bool:
        if sorted(self.part_q + self.part_r) != list(range(ps.n)):
            return False
        for part in (self.part_q, self.part_r):
            if sum(self.lambdas[i] for i in part) != 1:
                return False
            if any(self.lambdas[i] <= 0 for i in part):
                return False
            mix = [ZERO] * ps.dim
            for i in part:
                for axis, c in enumerate(ps.points[i]):
                    mix[axis] += self.lambdas[i] * c
            if tuple(mix) != self.common_point:
                return False
        return True


def _check_subset(ps: PointSet, subset: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(subset)
    if len(set(idx)) != len(idx):
        raise InputError(f"subset has repeated indices: {idx}")
    if any(i < 0 or i >= ps.n for i in idx):
        raise InputError(f"subset {idx} out of range for n={ps.n}")
    return idx


# a constraint's relation to the plane a.x = b the margin LP looks for
BELOW, ON, ABOVE = -1, 0, 1


def _margin_lp(dim: int, constraints: Sequence[tuple[Sequence[int], int]],
               strict: bool) -> Hyperplane | None:
    """The plane a.x = b, a in the box -1 <= a_i <= 1, with each point in
    the given relation to it, or None: ON is a.x = b, ABOVE a.x >= b + t and
    BELOW a.x <= b - t.  Strict maximizes the margin t, which must come out
    positive; weak (t = 0) maximizes +-a_i in turn until one is positive, so
    the normal is nonzero.

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
            return Hyperplane(tuple(x[:dim]), x[dim]).scaled_primitive()
    return None


def _hull_face(ys: Sequence[Sequence[int]], idx: tuple[int, ...], strict: bool) -> bool:
    """Whether idx is a weak (strict) face of the points with homogeneous
    integer rows ys (``PointSet.rows``), from the facets of their hull
    through point idx[0].

    Point idx[0] is put first, and the planes through it are the p-subsets with
    first index 0 of ``_prefix_walk``.  If some plane has a point off it, the
    set is full-dimensional, and then every facet is spanned by p independent
    points of it, point idx[0] among them if the facet contains it; the
    planes with one side empty are those facets.  idx is a weak face iff one
    facet's on-set contains it, and a strict face iff it equals the
    intersection of the on-sets of the facets containing it (each face of a
    polytope is the intersection of the facets containing it).  If no plane
    has a point off it, the set is flat: a plane containing it is a weak
    certificate for any idx, and a strict certificate restricts to one
    inside its affine hull and extends back, so a strict question moves into
    its ``_affine_chart``, one dimension down or more.  A chart of
    dimension 0 means every point coincides, and then no proper subset is a
    strict face.
    """
    n = len(ys)
    order = [idx[0], *(j for j in range(n) if j != idx[0])]
    where = {j: k for k, j in enumerate(order)}
    chosen = [where[i] for i in idx]
    closure: set[int] | None = None
    flat = True
    for s, sides in _prefix_walk([ys[j] for j in order], n):
        if s[0]:
            break
        if sides is None:
            continue
        lo, hi = min(sides), max(sides)
        if lo == hi == 0:
            continue
        flat = False
        if lo < 0 < hi or any(sides[k] for k in chosen):
            continue
        if not strict:
            return True
        on = {k for k, v in enumerate(sides) if not v}
        closure = on if closure is None else closure & on
        if len(closure) == len(chosen):
            return True
    if not flat:
        return False
    if not strict:
        return True
    chart = _affine_chart(ys, range(n))
    return len(chart[0]) > 1 and _hull_face(chart, idx, True)


def face_certificate(ps: PointSet, subset: Sequence[int], strict: bool = True) -> FaceCertificate | None:
    """Certificate that ``subset`` is a (strict) face of ps, or None.

    Strict means every point off the subset lies strictly on the positive
    side of the returned hyperplane; weak allows touching.  ``_hull_face``
    decides; the margin LP runs only to build the certificate of a face, and
    a face it finds no certificate for raises ``RuntimeError``.
    """
    idx = _check_subset(ps, subset)
    if not idx:
        raise InputError("face subset must be nonempty")
    if strict and len(idx) == ps.n:
        raise InputError("strict face must exclude at least one point")
    if not _hull_face(ps.rows, idx, strict):
        return None
    cert = _lp_face(ps, idx, strict)
    if cert is None:
        raise RuntimeError("face LP disagrees with the hull facets")
    return cert


def _lp_face(ps: PointSet, idx: tuple[int, ...], strict: bool) -> FaceCertificate | None:
    """The margin LP's (strict) face certificate for idx, checked by
    substitution, or None if the LP finds none."""
    chosen = set(idx)
    h = _margin_lp(ps.dim, [(ps.rows[i], ON) for i in idx]
                   + [(y, BELOW) for j, y in enumerate(ps.rows) if j not in chosen],
                   strict)
    if h is None:
        return None
    cert = FaceCertificate(hyperplane=h.flip(), strict=strict)
    if not cert.validate(ps, idx):
        raise RuntimeError("LP certificate failed substitution")
    return cert


def separation_hyperplane(ps: PointSet, subset: Sequence[int]) -> Hyperplane | None:
    """Hyperplane with ``subset`` strictly positive and the rest strictly
    negative, or None if no such hyperplane exists."""
    idx = _check_subset(ps, subset)
    if not 0 < len(idx) < ps.n:
        raise InputError("separation needs a nonempty proper subset")
    chosen = set(idx)
    h = _margin_lp(ps.dim, [(ps.rows[i], ABOVE) for i in idx]
                   + [(y, BELOW) for j, y in enumerate(ps.rows) if j not in chosen],
                   strict=True)
    if h is None:
        return None
    if any(s != (1 if i in chosen else -1) for i, s in enumerate(_plane_signs(h, ps))):
        raise RuntimeError("separation witness failed substitution")
    return h


def strictly_separable(ps: PointSet, subset: Sequence[int]) -> bool:
    return separation_hyperplane(ps, subset) is not None


def neighborliness_degree(ps: PointSet, max_k: int) -> int:
    """Largest k <= max_k with every subset of size <= k a strict face.

    Returns 0 as soon as some single point is not a vertex.
    """
    if not 1 <= max_k <= ps.n - 1:
        raise InputError(f"max_k must be in 1..{ps.n - 1}, got {max_k}")
    for size in range(1, max_k + 1):
        for subset in combinations(range(ps.n), size):
            if not _hull_face(ps.rows, subset, True):
                return size - 1
    return max_k


def is_weakly_k_neighborly(ps: PointSet, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every k-subset admits a weak face certificate.

    On failure returns (False, first failing subset in lexicographic order).
    """
    if not 1 <= k <= ps.n:
        raise InputError(f"k must be in 1..{ps.n}, got {k}")
    for subset in combinations(range(ps.n), k):
        if not _hull_face(ps.rows, subset, False):
            return False, subset
    return True, None


# --- constructive certificates ----------------------------------------------

def veronese_face_certificate(src: PointSet, subset: Sequence[int],
                              m: int) -> FaceCertificate | None:
    """Strict face certificate for a subset under veronese(d, m), m even, or None.

    With h = m / 2, a degree-h polynomial q that vanishes on the subset and at
    no other point of src gives q^2, zero on the subset and positive elsewhere;
    its coefficients in veronese(d, m) coordinates (the constant as offset) are
    the hyperplane.  q is the first q_t = sum_s t^s b_s, t = 0, 1, ..., over a
    kernel basis b_0..b_{r-1} of the subset's evaluation matrix on monomials of
    degree <= h, that is nonzero at every outside point.  At an outside point,
    q_t is a polynomial in t of degree <= r - 1, nonzero when the subset plus
    that point impose independent conditions on degree-h polynomials (general
    linear position of the degree-h lift); so t <= (n - |S|)(r - 1) suffices.
    Returns None if no such t exists.
    """
    if m < 2 or m % 2:
        raise InputError(f"veronese face certificate needs even m >= 2, got {m}")
    idx = _check_subset(src, subset)
    if not idx:
        raise InputError("face subset must be nonempty")
    half = m // 2
    const = (0,) * src.dim
    monomials = (const,) + _veronese_exponents(src.dim, half)
    if len(idx) > len(monomials) - 1:
        raise InputError(f"subset size {len(idx)} exceeds {len(monomials) - 1} "
                         f"for degree {half} in dim {src.dim}")

    def row(y: Sequence[int]) -> list[int]:
        # times D^half, a positive scale: the kernel and the outside signs stay
        *xs, den = y
        return [prod(map(pow, xs, exps)) * den ** (half - sum(exps)) for exps in monomials]

    basis = _nullspace([row(src.rows[i]) for i in idx], len(monomials))
    chosen = set(idx)
    outside_rows = [row(y) for j, y in enumerate(src.rows) if j not in chosen]
    outside = [[sum(map(mul, b, r)) for b in basis] for r in outside_rows]
    for t in range(len(outside) * (len(basis) - 1) + 1):
        powers = [t ** s for s in range(len(basis))]
        if all(sum(map(mul, powers, vals)) for vals in outside):
            break
    else:
        return None
    q = [sum(map(mul, powers, coeffs)) for coeffs in zip(*basis)]
    square: dict[tuple[int, ...], int] = {}
    for (ea, ca), (eb, cb) in product(zip(monomials, q), repeat=2):
        if ca and cb:
            key = tuple(map(add, ea, eb))
            square[key] = square.get(key, 0) + ca * cb
    normal = tuple(square.get(exps, 0) for exps in _veronese_exponents(src.dim, m))
    h = Hyperplane(normal, -square.get(const, 0)).scaled_primitive()
    return FaceCertificate(hyperplane=h, strict=True)


def embedding_face_certificate(src: PointSet, subset: Sequence[int], k: int) -> FaceCertificate:
    """Strict face certificate for a subset of size <= k under neighborly_embedding(k, d).

    The witness is the polynomial prod (x1 - v_1)^2 over the subset, read off
    as a hyperplane in the lifted coordinates (x1, ..., x1^2k, x2, ..., xd).
    Validity against the lifted set requires distinct first coordinates.
    """
    idx = _check_subset(src, subset)
    if not idx:
        raise InputError("face subset must be nonempty")
    if len(idx) > k:
        raise InputError(f"subset size {len(idx)} exceeds k={k}")
    coeffs = [ONE]
    for i in idx:
        root = src.points[i][0]
        for _ in range(2):
            shifted = [ZERO] + coeffs
            coeffs = [s - root * c for s, c in
                      zip(shifted, coeffs + [ZERO])]
    target = 2 * k + src.dim - 1
    normal = [ZERO] * target
    for power in range(1, len(coeffs)):
        normal[power - 1] = coeffs[power]
    h = Hyperplane(tuple(normal), -coeffs[0]).scaled_primitive()
    return FaceCertificate(hyperplane=h, strict=True)


# --- Radon partitions and weak separation ------------------------------------

def _affine_kernel(ps: PointSet) -> list[int]:
    """One nonzero vector lam with sum lam_i x_i = 0 and sum lam_i = 0.

    Requires n = dim + 2 points affinely spanning; raises DegeneracyError if
    the kernel is not one-dimensional.
    """
    n = ps.n
    rows = [[ps.points[i][axis] for i in range(n)] for axis in range(ps.dim)]
    rows.append([ONE] * n)
    basis = _nullspace(_int_rows(rows), n)
    if len(basis) != 1:
        witness = violating_subset(ps)
        raise DegeneracyError(
            f"points are not in general linear position: {witness}",
            witness or tuple(range(n)),
        )
    return basis[0]


def radon_partition(ps: PointSet) -> RadonWitness:
    """Radon partition of dim + 2 points in general linear position.

    The affine dependence splits by coefficient sign; normalizing each side
    to total weight one makes both convex combinations meet in one point.
    """
    if ps.n != ps.dim + 2:
        raise InputError(f"radon needs exactly dim + 2 = {ps.dim + 2} points, got {ps.n}")
    lam = _affine_kernel(ps)
    if any(v == 0 for v in lam):
        witness = tuple(i for i in range(ps.n) if lam[i] != 0)
        raise DegeneracyError(
            f"points are not in general linear position: {witness}", witness)
    part_q = tuple(i for i in range(ps.n) if lam[i] > 0)
    part_r = tuple(i for i in range(ps.n) if lam[i] < 0)
    total = sum(lam[i] for i in part_q)
    weights = [Fraction(abs(v), total) for v in lam]
    common = [ZERO] * ps.dim
    for i in part_q:
        for axis, c in enumerate(ps.points[i]):
            common[axis] += weights[i] * c
    witness = RadonWitness(
        part_q=part_q,
        part_r=part_r,
        lambdas=tuple(weights),
        common_point=tuple(common),
    )
    if not witness.validate(ps):
        raise RuntimeError("radon witness failed validation")
    return witness


def weak_separation(q: PointSet, r: PointSet) -> Hyperplane | None:
    """Nonzero hyperplane with q on its <= side and r on its >= side, or None."""
    if q.dim != r.dim:
        raise InputError("point sets must share ambient dimension")
    h = _margin_lp(q.dim, [(y, BELOW) for y in q.rows]
                   + [(y, ABOVE) for y in r.rows], strict=False)
    if h is not None and (1 in _plane_signs(h, q) or -1 in _plane_signs(h, r)):
        raise RuntimeError("separation failed substitution")
    return h
