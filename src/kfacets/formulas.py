"""Closed-form facet counts for neighborly and lifted families, and the
dimension of the explicit neighborly embedding.

Binomials with a negative or undersized top argument evaluate to zero, which
keeps every formula valid across its whole k-range without special casing.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import InputError


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def neighborly_e_k(n: int, d: int, k: int) -> int:
    """Oriented k-facet count of any neighborly polytope with n vertices in dim d."""
    if d < 1 or n <= d:
        raise InputError(f"need n > d >= 1, got n={n}, d={d}")
    if not 0 <= k <= n - d:
        raise InputError(f"k must be in 0..{n - d}, got {k}")
    if d % 2:
        half = (d + 1) // 2
        return 2 * binom(k + half - 1, half - 1) * binom(n - k - half, half - 1)
    half = d // 2
    return (binom(k + half - 1, half - 1) * binom(n - k - half, half)
            + binom(k + half, half) * binom(n - k - half - 1, half - 1))


def circle_count(n_points: int, k: int) -> int:
    """Oriented k-facet count of the circle lift of 2m + 1 generic planar points."""
    if n_points < 5 or n_points % 2 == 0:
        raise InputError(f"n_points must be odd and >= 5, got {n_points}")
    if not 0 <= k <= n_points - 3:
        raise InputError(f"k must be in 0..{n_points - 3}, got {k}")
    return 2 * (k + 1) * (n_points - k - 2)


def conic_count(n: int, k: int) -> int:
    """Oriented k-facet count of the degree-2 Veronese lift of n generic planar points."""
    if n < 6:
        raise InputError(f"need n >= 6, got {n}")
    if not 0 <= k <= n - 5:
        raise InputError(f"k must be in 0..{n - 5}, got {k}")
    return 2 * binom(k + 2, 2) * binom(n - k - 3, 2)


def homogeneous_count(n: int, m: int, k: int) -> int:
    """Oriented k-facet count of the degree-m homogeneous lift of n generic
    planar points, for even m (n is the total point count)."""
    if m < 2 or m % 2:
        raise InputError(f"m must be even and >= 2, got {m}")
    if n <= m + 1:
        raise InputError(f"need n > m + 1, got n={n}")
    if not 0 <= k <= n - m - 1:
        raise InputError(f"k must be in 0..{n - m - 1}, got {k}")
    half = m // 2
    return 2 * binom(k + half, half) * binom(n - k - half - 1, half)


def convex_3d_count(n: int, k: int) -> int:
    """Oriented k-facet count of n points in convex and general position in R^3."""
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    if not 0 <= k <= n - 3:
        raise InputError(f"k must be in 0..{n - 3}, got {k}")
    return 2 * (k + 1) * n - 4 * binom(k + 2, 2)


def generally_neighborly_dim(k: int, d: int) -> int:
    """Target dimension 2k + d - 1 of the explicit k-neighborly embedding."""
    if k < 1 or d < 1:
        raise InputError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    return 2 * k + d - 1


class CountFormula(NamedTuple):
    name: str
    params: tuple[str, ...]
    fn: Callable[..., int]


FORMULAS: dict[str, CountFormula] = {
    f.name: f
    for f in (
        CountFormula("neighborly-ek", ("n", "d", "k"), neighborly_e_k),
        CountFormula("circle", ("n", "k"), circle_count),
        CountFormula("conic", ("n", "k"), conic_count),
        CountFormula("homogeneous", ("n", "m", "k"), homogeneous_count),
        CountFormula("convex3d", ("n", "k"), convex_3d_count),
        CountFormula("embed-dim", ("k", "d"), generally_neighborly_dim),
    )
}
