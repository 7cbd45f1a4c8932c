"""Polynomial lifting maps with integer-linear-combination coordinates.

A map sends R^d -> R^p coordinate-wise; each output coordinate is an integer
linear combination of monomials in the source variables.  Pure monomial maps
(every coordinate one monomial with coefficient 1) cover the Veronese family;
the sum-of-squares coordinate of the circle map needs the general form.
A lift is computed on the homogeneous integer rows of the points
(``PointSet.rows``), with no rational arithmetic.
"""

from __future__ import annotations

from functools import cache
from math import prod
from numbers import Rational

from .errors import InputError
from .geometry import PointSet, _Record

Term = tuple[int, tuple[int, ...]]  # (coefficient, exponent vector)


class MonomialMap(_Record):
    source_dim: int
    coords: tuple[tuple[Term, ...], ...]

    def __init__(self, source_dim, coords):
        if source_dim < 1:
            raise InputError("source_dim must be >= 1")
        if not coords:
            raise InputError("map needs at least one output coordinate")
        for terms in coords:
            if not terms:
                raise InputError("empty coordinate polynomial")
            for coef, exps in terms:
                if (isinstance(coef, bool) or not isinstance(coef, Rational)
                        or coef.denominator != 1):
                    raise InputError(f"coefficient {coef!r} is not an integer")
                if len(exps) != source_dim:
                    raise InputError(f"exponent vector {exps} has wrong arity")
                if coef == 0:
                    raise InputError("zero coefficient term")
                if all(e == 0 for e in exps):
                    raise InputError("constant terms are not allowed")
                if any(e < 0 for e in exps):
                    raise InputError("negative exponent")
        self._store(source_dim, tuple(tuple((int(c), tuple(e)) for c, e in terms)
                                      for terms in coords))

    @property
    def target_dim(self) -> int:
        return len(self.coords)

    def apply(self, ps: PointSet) -> PointSet:
        """Lift every point, preserving order and labels.

        With m the map's top degree, each row (X, D) of ``PointSet.rows``
        maps to the integer row of coordinates sum c X^e D^(m - |e|) and
        weight D^m, a positive multiple of (phi(x), 1).
        """
        if ps.dim != self.source_dim:
            raise InputError(f"point has dim {ps.dim}, map expects {self.source_dim}")
        top = max(sum(e) for terms in self.coords for _, e in terms)
        polys = [[(c, e, top - sum(e)) for c, e in terms] for terms in self.coords]
        rows = []
        for *xs, den in ps.rows:
            dens = [den ** k for k in range(top + 1)]
            rows.append([sum(c * prod(map(pow, xs, e)) * dens[k] for c, e, k in poly)
                         for poly in polys] + [dens[top]])
        return PointSet(self.target_dim, rows, ps.labels)


def _monomial(exps: tuple[int, ...]) -> tuple[Term, ...]:
    return ((1, exps),)


def _degree_exponents(d: int, total: int) -> list[tuple[int, ...]]:
    # lex-descending: first variable's exponent decreases outermost
    if d == 1:
        return [(total,)]
    out = []
    for e in range(total, -1, -1):
        out.extend((e,) + rest for rest in _degree_exponents(d - 1, total - e))
    return out


def veronese(d: int, m: int) -> MonomialMap:
    """All non-constant monomials of degree <= m, degree ascending, lex within.

    Target dimension is C(d + m, m) - 1.
    """
    if d < 1 or m < 1:
        raise InputError("veronese needs d >= 1 and m >= 1")
    return MonomialMap(source_dim=d,
                       coords=tuple(map(_monomial, _veronese_exponents(d, m))))


@cache
def _veronese_exponents(d: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of veronese(d, m), in its coordinate order."""
    return tuple(e for deg in range(1, m + 1) for e in _degree_exponents(d, deg))


def homogeneous_veronese(d: int, m: int) -> MonomialMap:
    """All monomials of degree exactly m; target dimension C(d + m - 1, m)."""
    if d < 1 or m < 1:
        raise InputError("homogeneous veronese needs d >= 1 and m >= 1")
    return MonomialMap(
        source_dim=d,
        coords=tuple(_monomial(e) for e in _degree_exponents(d, m)),
    )


def circle_map() -> MonomialMap:
    """(x, y) -> (x, y, x^2 + y^2), the paraboloid-equivalent circle lift."""
    return MonomialMap(
        source_dim=2,
        coords=(
            _monomial((1, 0)),
            _monomial((0, 1)),
            ((1, (2, 0)), (1, (0, 2))),
        ),
    )


def moment_curve(d: int) -> MonomialMap:
    """t -> (t, t^2, ..., t^d)."""
    if d < 1:
        raise InputError(f"moment curve needs d >= 1, got {d}")
    return veronese(1, d)


def neighborly_embedding(k: int, d: int) -> MonomialMap:
    """(x1..xd) -> (x1, x1^2, ..., x1^2k, x2, ..., xd) into dim 2k + d - 1."""
    if k < 1 or d < 1:
        raise InputError("embedding needs k >= 1 and d >= 1")
    coords = [_monomial(tuple(j if i == 0 else 0 for i in range(d)))
              for j in range(1, 2 * k + 1)]
    for axis in range(1, d):
        coords.append(_monomial(tuple(1 if i == axis else 0 for i in range(d))))
    return MonomialMap(source_dim=d, coords=tuple(coords))


def map_from_key(key: str) -> MonomialMap:
    """Resolve CLI map keys: veronese:d:m, hveronese:d:m, circle, moment:d, embed:k:d.

    ``custom:<file>`` keys are resolved by the serialization layer, not here.
    """
    name, *args = key.split(":")
    builders = {"veronese": (veronese, 2), "hveronese": (homogeneous_veronese, 2),
                "circle": (circle_map, 0), "moment": (moment_curve, 1),
                "embed": (neighborly_embedding, 2)}
    if name not in builders or len(args) != builders[name][1]:
        raise InputError(f"unknown map key {key!r}")
    try:
        values = [int(a) for a in args]
    except ValueError as exc:
        raise InputError(f"bad map key {key!r}") from exc
    return builders[name][0](*values)
