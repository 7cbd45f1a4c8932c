"""Face certificates, neighborliness, and Radon partitions.

Every face question is read off the facets of the hull, which a point set
finds once, in one integer walk over its planes, and keeps
(``PointSet.hull``); so a "no" needs no LP and no question walks again.
A weak face lies in some facet (``_weak_face``).  A strict face is the
intersection of the facets that contain it, so the sum of their inward
functionals is zero on the subset and positive off it, which is its
certificate (``_kept_facets``, ``_strict_plane``).  Only a weak face
certificate still comes from an LP (``_lp_face``), and from one: the
facets holding the subset generate the normals of its planes, so they
name the first objective the LP finds positive (``_weak_objective``).
Every builder, the LP included, hands an integer functional to
``Hyperplane``, which keeps the coprime integer form, and every returned
certificate re-verifies by direct substitution on the integer rows
(``FaceCertificate.validate``), and so does every Radon witness, an
integer affine dependence (``RadonWitness.validate``).

For the even-degree Veronese lift and the neighborly embedding, strict face
certificates are also built directly, as squares of polynomials that vanish
on the subset only.  The Veronese builder evaluates one table per point set,
each point's row on the monomials of degree <= m / 2 (``veronese_certifier``),
so each subset costs one pivot past its prefix and, past t = 0, a t-search.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import prod
from operator import add, mul, neg
from typing import NamedTuple, Sequence

from .errors import DegeneracyError, InputError
from .geometry import Hyperplane, PointSet, _nullspace, _packing, _pivot
from .liftmaps import _veronese_exponents
from .simplex import maximize

class FaceCertificate(NamedTuple):
    """Hyperplane containing a subset with all other points on the positive side."""

    hyperplane: Hyperplane
    strict: bool

    def validate(self, ps: PointSet, subset: Sequence[int]) -> bool:
        """Exact substitution into the integer rows (X_j, D_j) of the set the
        certificate is for, in its dimension, of a subset naming distinct
        points of it: a.X_j - b D_j row by row, to the first failure."""
        chosen = set(subset)
        if (len(self.hyperplane.normal) != ps.dim or len(chosen) != len(subset)
                or not all(0 <= i < ps.n for i in chosen)):
            return False
        a, least = (*self.hyperplane.normal, -self.hyperplane.offset), int(self.strict)
        for j, y in enumerate(ps.rows):
            v = sum(map(mul, a, y))
            if (v != 0) if j in chosen else (v < least):
                return False
        return True


class RadonWitness(NamedTuple):
    """Radon partition of a (dim+2)-point set as its integer affine
    dependence mu, one nonzero int per point: sum_j mu_j (X_j, D_j) = 0 over
    ``PointSet.rows``.  Q is where mu_j > 0 and R where mu_j < 0; both weigh
    total = sum_Q mu_j D_j and mix to sum_Q mu_j X_j / total, rationals that
    only ``serialize.radon_to_json`` builds."""

    mu: tuple[int, ...]

    @property
    def part_q(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.mu) if v > 0)

    @property
    def part_r(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.mu) if v < 0)

    def validate(self, ps: PointSet) -> bool:
        """Exact substitution of mu into the integer rows: one nonzero entry
        per point and every column sum sum_j mu_j y_j[c] zero.  Every D_j is
        positive, so the last column makes both parts nonempty with equal
        weight, and the others make them mix to one point."""
        return (len(self.mu) == ps.n and 0 not in self.mu
                and not any(sum(map(mul, self.mu, col)) for col in zip(*ps.rows)))


def _check_subset(ps: PointSet, subset: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(subset)
    if not idx:
        raise InputError("face subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise InputError(f"subset has repeated indices: {idx}")
    if any(i < 0 or i >= ps.n for i in idx):
        raise InputError(f"subset {idx} out of range for n={ps.n}")
    return idx


def _weak_objective(ps: PointSet, idx: tuple[int, ...]) -> list[int]:
    """The first objective +-a_l, in the order a_1, -a_1, a_2, ..., that is
    positive somewhere on the weak face LP's planes through idx.

    Their normals make up the normal cone of the smallest face holding idx,
    which the outward normals of the facets holding it generate, plus, on a
    flat set, the lineality (``Hull``) of either sign; so the first +-a_l
    positive on one of those is the first the LP finds positive.  idx must
    be a weak face of ps.
    """
    hull, chosen = ps.hull, sum(1 << i for i in idx)
    outward = [[-c for c in hull.inward(on, s)[:-1]]
               for on, s in hull.facets if on & chosen == chosen]
    return next([sigma * (j == l) for j in range(ps.dim + 1)]
                for l in range(ps.dim) for sigma in (1, -1)
                if any(v[l] for v in hull.lineality) or any(sigma * v[l] > 0 for v in outward))


def _lp_face(ps: PointSet, idx: tuple[int, ...], objective: list[int]) -> Hyperplane | None:
    """The weak face LP: a plane a.x = b, a in the box -1 <= a_i <= 1 and
    nonzero, through the points idx with every other point on or below it,
    returned flipped so the other points are on its positive side; None if
    the objective (``_weak_objective``) comes out 0.

    Each point comes as its homogeneous integer row (X, D) = (D x, D) of
    ``PointSet.rows``, so every LP row is an integer row: a point of idx
    gives a.X - b D <= 0 and -a.X + b D <= 0, any other point
    a.X - b D <= 0, with idx first and the rest in order; the box rows come
    last.  The variables are a and b.  ``maximize`` answers in integers, the
    optimum and the optimal (a, b) times its final pivot, a positive factor
    that leaves the sign of the optimum and the plane as they are.
    """
    dim, chosen = ps.dim, set(idx)
    rows = []
    for j in (*idx, *(j for j in range(ps.n) if j not in chosen)):
        *xs, den = ps.rows[j]
        rows.append(([*xs, -den], 0))
        if j in chosen:
            rows.append(([*map(neg, xs), den], 0))
    for l in range(dim):
        e = [int(j == l) for j in range(dim + 1)]
        rows += [(e, 1), ([-c for c in e], 1)]
    value, x = maximize(objective, rows)
    return Hyperplane(tuple(map(neg, x[:dim])), -x[dim]) if value > 0 else None


def _weak_face(ps: PointSet, chosen: int) -> bool:
    """Whether the points chosen (a bitmask) are a weak face of ps: the set
    is flat (a plane holds every point, ``Hull.lineality``) or one facet's
    on-set contains them."""
    hull = ps.hull
    return bool(hull.lineality) or any(on & chosen == chosen for on, _ in hull.facets)


def _kept_facets(facets, chosen: int) -> list | None:
    """The facets, each a tuple (on-set, ...) in the walk order of ``Hull``,
    that show the points chosen (a bitmask) to be a strict face, or None if
    they are not one.  A strict face is the intersection of the on-sets of
    the facets containing it (each face of a polytope is the intersection
    of the facets containing it); those are visited in the order of their
    first spanning subset through the face's least point, keeping each that
    shrinks the intersection of the ones kept before it."""
    closure, kept = -1, []
    for facet in facets:
        on = facet[0]
        if on & chosen == chosen and closure & on != closure:
            closure &= on
            kept.append(facet)
            if closure == chosen:
                return kept
    return None


def _strict_plane(functionals) -> Hyperplane:
    """The plane of the sum c of the kept facets' primitive inward
    functionals (``Hull.inward``): c.(X, D) is zero on the points every
    facet contains and positive on every other point."""
    *a, c = map(sum, zip(*functionals))
    return Hyperplane(tuple(a), -c)


def face_certificate(ps: PointSet, subset: Sequence[int], strict: bool = True) -> FaceCertificate | None:
    """Certificate that ``subset`` is a (strict) face of ps, or None.

    Strict means every point off the subset lies strictly on the positive
    side of the returned hyperplane; weak allows touching.  The hull's
    facets decide.  A strict certificate is the plane of the facets that
    show it (``_kept_facets``, ``_strict_plane``); on a flat set those are
    the facets of its chart, so the plane restricts to one inside the
    affine hull and extends back.  A weak one comes from one weak face LP,
    maximizing the objective the facets name (``_weak_objective``), and a
    0 from it raises ``RuntimeError``.  Every certificate is checked by
    substitution before it is returned.
    """
    idx = _check_subset(ps, subset)
    if strict and len(idx) == ps.n:
        raise InputError("strict face must exclude at least one point")
    chosen = sum(1 << i for i in idx)
    if strict:
        kept = _kept_facets(ps.hull.facets, chosen)
        if kept is None:
            return None
        h = _strict_plane(ps.hull.inward(*facet) for facet in kept)
    elif not _weak_face(ps, chosen):
        return None
    else:
        h = _lp_face(ps, idx, _weak_objective(ps, idx))
        if h is None:
            raise RuntimeError("face LP disagrees with the hull facets")
    cert = FaceCertificate(hyperplane=h, strict=strict)
    if not cert.validate(ps, idx):
        raise RuntimeError("face certificate failed substitution")
    return cert


def neighborliness_degree(ps: PointSet, max_k: int) -> int:
    """Largest k <= max_k with every subset of size <= k a strict face.

    Returns 0 as soon as some single point is not a vertex.
    """
    if not 1 <= max_k <= ps.n - 1:
        raise InputError(f"max_k must be in 1..{ps.n - 1}, got {max_k}")
    for size in range(1, max_k + 1):
        for subset in combinations(range(ps.n), size):
            if _kept_facets(ps.hull.facets, sum(1 << i for i in subset)) is None:
                return size - 1
    return max_k


def is_weakly_k_neighborly(ps: PointSet, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every k-subset admits a weak face certificate.

    On failure returns (False, first failing subset in lexicographic order).
    """
    if not 1 <= k <= ps.n:
        raise InputError(f"k must be in 1..{ps.n}, got {k}")
    for subset in combinations(range(ps.n), k):
        if not _weak_face(ps, sum(1 << i for i in subset)):
            return False, subset
    return True, None


# --- constructive certificates ----------------------------------------------

@cache
def _square_coordinates(d: int, half: int) -> tuple[tuple[int, ...], ...]:
    """table[a][b]: the coordinate of monomial a times monomial b in
    veronese(d, 2 half), index 0 the constant, for the monomials of degree
    <= half (the constant first, then ``_veronese_exponents``)."""
    const = (0,) * d
    where = {e: i for i, e in enumerate((const,) + _veronese_exponents(d, 2 * half))}
    monomials = (const,) + _veronese_exponents(d, half)
    return tuple(tuple(where[tuple(map(add, ea, eb))] for eb in monomials) for ea in monomials)


def veronese_certifier(src: PointSet, m: int):
    """Strict face certificates under veronese(d, m), m even, for subsets of
    src: a function from a subset to its certificate, or None.

    With h = m / 2, a degree-h polynomial q that vanishes on the subset and at
    no other point of src gives q^2, zero on the subset and positive elsewhere;
    its coefficients in veronese(d, m) coordinates (the constant as offset) are
    the hyperplane.  q is the first q_t = sum_s t^s b_s, t = 0, 1, ..., over a
    kernel basis b_0..b_{r-1} of the subset's evaluation matrix on monomials of
    degree <= h, that is nonzero at every outside point.  At an outside point,
    q_t is a polynomial in t of degree <= r - 1, nonzero when the subset plus
    that point impose independent conditions on degree-h polynomials (general
    linear position of the degree-h lift); so t <= (n - |S|)(r - 1) suffices.
    A subset with no such t gets None.

    The subset-free work is done once per src: the rows on the w monomials of
    degree <= h, then w unit rows that read coefficients, are packed once
    (``_packing``), and each subset is pivoted (``_pivot``) past its common
    prefix with the last one only.  What is left is ``_nullspace``'s basis
    times the last pivot (the pivots fall on the lex-first column basis),
    which the t-search ignores; t = 0 is a census."""
    if m < 2 or m % 2:
        raise InputError(f"veronese face certificate needs even m >= 2, got {m}")
    half = m // 2
    table = _square_coordinates(src.dim, half)
    n, w = src.n, len(table)
    # each row times D^half, a positive scale: the kernel and the outside signs stay
    ys = [[prod(map(pow, xs, exps)) * den ** (half - sum(exps))
           for exps in ((0,) * src.dim,) + _veronese_exponents(src.dim, half)]
          for *xs, den in src.rows] + [[int(a == c) for c in range(w)] for a in range(w)]
    width, top, low = _packing(ys, n + w)
    mask, bias, points = (1 << width) - 1, 1 << width - 1, top & (1 << width * n) - 1
    # (prefix, rows, prev) after pivoting on each prefix of the last subset
    path = [((), [sum(y[a] << width * j for j, y in enumerate(ys)) for a in range(w)], 1)]

    def certify(subset: Sequence[int]) -> FaceCertificate | None:
        idx = _check_subset(src, subset)
        if len(idx) > w - 1:
            raise InputError(f"subset size {len(idx)} exceeds {w - 1} "
                             f"for degree {half} in dim {src.dim}")
        while idx[:len(path[-1][0])] != path[-1][0]:
            path.pop()
        for i in idx[len(path) - 1:]:
            head, rows, prev = path[-1]
            step = _pivot(rows, [row + top for row in rows], i, width, prev)
            path.append((head + (i,), *(step or (rows, prev))))
        shifted = [row + top for row in path[-1][1]]
        ge0 = shifted[0] & top
        if ((ge0 ^ ge0 & (shifted[0] & low) + low) & points).bit_count() == len(idx):
            q = [(shifted[0] >> width * j & mask) - bias for j in range(n, n + w)]
        else:
            values = [[(x >> width * j & mask) - bias for j in range(n + w)] for x in shifted]
            outside = [vals for j, vals in enumerate(zip(*values)) if j < n and j not in idx]
            for t in range(1, len(outside) * (len(values) - 1) + 1):
                powers = [t ** s for s in range(len(values))]
                if all(sum(map(mul, powers, vals)) for vals in outside):
                    break
            else:
                return None
            q = [sum(map(mul, powers, coeffs)) for coeffs in zip(*values)][n:]
        square = [0] * (len(_veronese_exponents(src.dim, m)) + 1)
        for ca, coords in zip(q, table):
            if ca:
                for cb, k in zip(q, coords):
                    square[k] += ca * cb
        return FaceCertificate(hyperplane=Hyperplane(tuple(square[1:]), -square[0]), strict=True)

    return certify


def embedding_face_certificate(src: PointSet, subset: Sequence[int], k: int) -> FaceCertificate:
    """Strict face certificate for a subset of size <= k under neighborly_embedding(k, d).

    The witness is the polynomial prod (D x1 - X_1)^2 over the subset, for
    each point's homogeneous integer row (X, D) (``PointSet.rows``), a
    positive multiple of prod (x1 - v_1)^2, read off as a hyperplane in the
    lifted coordinates (x1, ..., x1^2k, x2, ..., xd).  Validity against the
    lifted set requires distinct first coordinates.
    """
    idx = _check_subset(src, subset)
    if len(idx) > k:
        raise InputError(f"subset size {len(idx)} exceeds k={k}")
    coeffs = [1]
    for i in idx:
        root, den = src.rows[i][0], src.rows[i][-1]
        for _ in range(2):
            coeffs = [den * s - root * c for s, c in zip([0, *coeffs], [*coeffs, 0])]
    normal = tuple(coeffs[1:] + [0] * (2 * k + src.dim - len(coeffs)))
    return FaceCertificate(hyperplane=Hyperplane(normal, -coeffs[0]), strict=True)


# --- Radon partitions ----------------------------------------------------------

def radon_partition(ps: PointSet) -> RadonWitness:
    """Radon partition of dim + 2 points in general linear position.

    The kernel vector mu of the homogeneous integer rows (X_j, D_j)
    (``PointSet.rows``) taken as columns is the witness, with the sign
    ``_nullspace`` gives it: it splits the points by sign into Q and R
    (``RadonWitness``).  Raises DegeneracyError unless mu is unique up to
    scale and has no zero entry.
    """
    if ps.n != ps.dim + 2:
        raise InputError(f"radon needs exactly dim + 2 = {ps.dim + 2} points, got {ps.n}")
    basis = _nullspace(list(zip(*ps.rows)), ps.n)
    if len(basis) != 1:
        # rank <= dim puts every point on one hyperplane, so the first
        # dim + 1 of them are dependent
        witness = tuple(range(ps.dim + 1))
        raise DegeneracyError(
            f"points are not in general linear position: {witness}", witness)
    mu = basis[0]
    if 0 in mu:
        witness = tuple(i for i in range(ps.n) if mu[i] != 0)
        raise DegeneracyError(
            f"points are not in general linear position: {witness}", witness)
    witness = RadonWitness(tuple(mu))
    if not witness.validate(ps):
        raise RuntimeError("radon witness failed validation")
    return witness
