"""The Veronese face certificate built from one fresh kernel per subset,
kept as the reference ``facelab.veronese_certifier`` is checked against.

For each subset it takes the ``_nullspace`` basis of the subset's rows on
the monomials of degree <= m / 2, one dot product per outside point and
basis vector, and the t-search that ``veronese_certifier`` describes; q^2
is summed by index into the veronese(d, m) coordinates.
"""

from math import prod
from operator import mul

from kfacets.facelab import FaceCertificate, _square_coordinates
from kfacets.geometry import Hyperplane, _nullspace
from kfacets.liftmaps import _veronese_exponents


def veronese_certificate(src, subset, m):
    """The strict certificate of subset under veronese(src.dim, m), or None."""
    half = m // 2
    table = _square_coordinates(src.dim, half)
    width = len(table)
    # each row times D^half, a positive scale: the kernel and the outside signs stay
    rows = [[prod(map(pow, xs, exps)) * den ** (half - sum(exps))
             for exps in ((0,) * src.dim,) + _veronese_exponents(src.dim, half)]
            for *xs, den in src.rows]
    idx = tuple(subset)
    basis = _nullspace([rows[i] for i in idx], width)
    chosen = set(idx)
    outside = [[sum(map(mul, b, r)) for b in basis]
               for j, r in enumerate(rows) if j not in chosen]
    for t in range(len(outside) * (len(basis) - 1) + 1):
        powers = [t ** s for s in range(len(basis))]
        if all(sum(map(mul, powers, vals)) for vals in outside):
            break
    else:
        return None
    q = [sum(map(mul, powers, coeffs)) for coeffs in zip(*basis)]
    square = [0] * (len(_veronese_exponents(src.dim, m)) + 1)
    for ca, coords in zip(q, table):
        if ca:
            for cb, k in zip(q, coords):
                square[k] += ca * cb
    return FaceCertificate(hyperplane=Hyperplane(tuple(square[1:]), -square[0]), strict=True)
