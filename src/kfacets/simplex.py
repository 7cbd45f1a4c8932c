"""Exact rational linear programming by primal simplex with Bland's rule.

Scope is deliberately narrow: maximize c.x subject to A x <= b over *free*
variables, where every entry of b is >= 0 so the origin is feasible and the
all-slack basis starts the iteration.  The one LP in this package, the weak
face LP (``facelab._lp_face``), is posed in that shape, which removes any
need for a second phase or artificial variables.

The tableau is kept fraction-free: all entries are integers M[i][j] with one
shared positive denominator D (integer pivoting, as in Bareiss elimination),
so the inner loop is pure bigint arithmetic.  Rows may come as ints, which
are used as they are, or as Fractions, each row scaled by the lcm of its
denominators.  A free variable x_j is split as x+_j - x-_j, but the x-_j
column is always the negated x+_j column, so only x+_j is stored and x-_j is
read from it with the sign flipped.  Bland's rule (lowest variable index
enters, in the order x+, x-, slacks; lowest basic index breaks ratio ties)
makes the iteration deterministic and cycle-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InputError


class Unbounded(RuntimeError):
    """The LP has rays of unbounded improvement (never expected here)."""


def maximize(
    objective: Sequence[int | Fraction],
    rows: Sequence[tuple[Sequence[int | Fraction], int | Fraction]],
) -> tuple[Fraction, list[Fraction]]:
    """Solve max objective.x s.t. coeffs.x <= rhs for each row, x free.

    Entries may be ints or Fractions.  Every rhs must be >= 0.  Returns
    (optimal value, one optimal x).
    """
    nv = len(objective)
    m = len(rows)
    if m == 0:
        raise InputError("need at least one constraint row")
    rhs_col = nv + m            # stored: x columns, slack columns, rhs

    tableau: list[list[int]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != nv:
            raise InputError("constraint width does not match objective")
        if rhs < 0:
            raise InputError("rhs must be nonnegative (origin-feasible form)")
        mult = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        irow = [c.numerator * (mult // c.denominator) for c in coeffs] + [0] * (m + 1)
        irow[nv + i] = 1        # slack variable scaled into the row
        irow[rhs_col] = rhs.numerator * (mult // rhs.denominator)
        tableau.append(irow)

    obj_scale = lcm(1, *(c.denominator for c in objective))
    zrow = [-c.numerator * (obj_scale // c.denominator) for c in objective] + [0] * (m + 1)
    tableau.append(zrow)

    # basis labels: x+_j = j, x-_j = nv + j, slack i = 2 nv + i
    basis = [2 * nv + i for i in range(m)]
    denom = 1

    while True:
        # Bland over the labels; x-_j is stored column j read negated
        costs = zrow[:nv] + [-v for v in zrow[:nv]] + zrow[nv:rhs_col]
        entering = next((j for j, v in enumerate(costs) if v < 0), None)
        if entering is None:
            break
        ecol = entering if entering < nv else entering - nv
        sign = -1 if nv <= entering < 2 * nv else 1
        # ratio test over rows with positive entry in the entering column
        leave = -1
        lnum = lden = 0
        for i in range(m):
            a = sign * tableau[i][ecol]
            if a <= 0:
                continue
            b = tableau[i][rhs_col]
            if leave < 0 or b * lden < lnum * a or (
                b * lden == lnum * a and basis[i] < basis[leave]
            ):
                leave, lnum, lden = i, b, a
        if leave < 0:
            raise Unbounded("entering column has no positive entries")
        pivot_row = tableau[leave]
        pivot = lden
        for i in range(m + 1):
            if i == leave:
                continue
            row = tableau[i]
            f = sign * row[ecol]
            if f == 0:
                if pivot == denom:
                    continue
                for col in range(rhs_col + 1):
                    row[col] = row[col] * pivot // denom
            else:
                for col in range(rhs_col + 1):
                    row[col] = (row[col] * pivot - f * pivot_row[col]) // denom
        denom = pivot
        basis[leave] = entering

    values = [Fraction(0)] * (2 * nv)
    for i, label in enumerate(basis):
        if label < 2 * nv:
            values[label] = Fraction(tableau[i][rhs_col], denom)
    x = [values[j] - values[nv + j] for j in range(nv)]
    value = Fraction(zrow[rhs_col], denom * obj_scale)
    return value, x
