"""Exact linear programming in integers by primal simplex with Bland's rule.

Scope is deliberately narrow: maximize c.x subject to A x <= b over *free*
variables, where every entry of b is >= 0 so the origin is feasible and the
all-slack basis starts the iteration.  The one LP in this package, the weak
face LP (``facelab._lp_face``), is posed in that shape, which removes any
need for a second phase or artificial variables.

The objective and every row are integers, and so is the answer.  The
tableau is kept fraction-free: all entries are integers with one shared
positive denominator D, the last pivot (integer pivoting, as in Bareiss
elimination), so the inner loop is pure bigint arithmetic, and the optimum
and the optimal point come out times the final pivot D, never divided.

The tableau is condensed: it keeps the m constraint rows and the objective
row, but only nv + 1 columns, the rhs and one slot per nonbasic column.  A
basic variable's column is D times a unit vector and a slack starts basic,
so neither needs storing.  A free variable x_j is split as x+_j - x-_j, and
the x-_j column is always the negated x+_j column, so one slot holds the
pair, stored as x+_j: while one of the two is basic the other costs 0 and
never enters.  When a variable enters at pivot row r, the variable leaving
row r takes its slot; that column is -f_i in each other row i, f_i being
row i's entry in the entering column, and the old D in row r (negated for
a leaving x-_j).  Every stored entry is the one the full tableau would hold,
so Bland's rule (lowest variable label enters, in the order x+, x-, slacks;
lowest basic label breaks ratio ties) takes the same pivots as on the full
tableau, and the iteration is deterministic and cycle-free.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError


class Unbounded(RuntimeError):
    """The LP has rays of unbounded improvement (never expected here)."""


def maximize(
    objective: Sequence[int],
    rows: Sequence[tuple[Sequence[int], int]],
) -> tuple[int, list[int]]:
    """Solve max objective.x s.t. coeffs.x <= rhs for each row, x free.

    Every entry is an int and every rhs is >= 0.  Returns (optimal value,
    one optimal x), both times the final pivot D > 0: the optimum is
    value / D, at the point x / D.
    """
    nv = len(objective)
    m = len(rows)
    if m == 0:
        raise InputError("need at least one constraint row")

    tableau: list[list[int]] = []       # row-major while it is read in
    for coeffs, rhs in rows:
        if len(coeffs) != nv:
            raise InputError("constraint width does not match objective")
        if rhs < 0:
            raise InputError("rhs must be nonnegative (origin-feasible form)")
        tableau.append([*coeffs, rhs])
    tableau.append([-c for c in objective] + [0])
    # column-major from here: cols[s] is slot s (rows 0..m-1, then the
    # objective row), cols[nv] the rhs
    cols = [list(col) for col in zip(*tableau)]

    # labels: x+_j = j, x-_j = nv + j, slack i = 2 nv + i; slots[s] is the
    # label slot s holds, an x-_j always held as x+_j
    slots = list(range(nv))
    basis = [2 * nv + i for i in range(m)]
    denom = 1

    while True:
        # Bland over the labels: slot s with cost v offers x+_j (or a slack)
        # when v < 0 and x-_j when v > 0
        entering = slot = -1
        for s, label in enumerate(slots):
            v = cols[s][m]
            if v > 0 and label < nv:
                label += nv
            elif v >= 0:
                continue
            if entering < 0 or label < entering:
                entering, slot = label, s
        if entering < 0:
            break
        sign = -1 if nv <= entering < 2 * nv else 1
        # ratio test over rows with positive entry in the entering column
        ecol, rhs = cols[slot], cols[nv]
        leave = -1
        lnum = lden = 0
        for i in range(m):
            a = sign * ecol[i]
            if a <= 0:
                continue
            b = rhs[i]
            if leave < 0 or b * lden < lnum * a or (
                b * lden == lnum * a and basis[i] < basis[leave]
            ):
                leave, lnum, lden = i, b, a
        if leave < 0:
            raise Unbounded("entering column has no positive entries")
        pivot = lden
        f = [sign * v for v in ecol]
        for s, col in enumerate(cols):
            if s == slot:
                continue
            w = col[leave]              # the pivot row keeps its entries
            if w:
                col = [(v * pivot - g * w) // denom for v, g in zip(col, f)]
                col[leave] = w
                cols[s] = col
            elif pivot != denom:
                cols[s] = [v * pivot // denom for v in col]
        # the leaving variable's column takes the entering one's slot
        left = basis[leave]
        if nv <= left < 2 * nv:
            f[leave] = -denom
            slots[slot] = left - nv
        else:
            f = [-g for g in f]
            f[leave] = denom
            slots[slot] = left
        cols[slot] = f
        denom = pivot
        basis[leave] = entering

    rhs = cols[nv]
    x = [0] * nv
    for i, label in enumerate(basis):
        if label < nv:
            x[label] = rhs[i]
        elif label < 2 * nv:
            x[label - nv] = -rhs[i]
    return rhs[m], x
