"""Seeded generation of point sets in various genericity classes.

All generators draw integer coordinates from ``random.Random(seed)`` and
reject wholesale until the requested predicate holds, so a (seed, shape)
pair always reproduces the same set, bit for bit.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import lcm

from .errors import DegeneracyError, GenerationError, InputError
from .facelab import FaceCertificate
from .geometry import Hyperplane, PointSet, is_general_linear_position, point_set
from .liftmaps import MonomialMap, homogeneous_veronese, moment_curve, veronese

DEFAULT_RETRIES = 200


def _draw_until(accept, what: str, n: int, d: int, seed: int) -> tuple[PointSet, object]:
    """(ps, accept(ps)) for the first draw ps that accept answers truthy.
    A DegeneracyError from accept rejects the draw as False would, so a
    sweep, which raises it on a set not in general linear position, is a
    predicate that tests a draw and counts it at once."""
    # one seeded stream of row-major draws, whatever the predicate
    bound = max(2 * n * d, 16)
    rng = random.Random(seed)
    for _ in range(DEFAULT_RETRIES):
        ps = PointSet(d, tuple((*(rng.randint(-bound, bound) for _ in range(d)), 1)
                               for _ in range(n)))
        try:
            accepted = accept(ps)
        except DegeneracyError:
            continue
        if accepted:
            return ps, accepted
    raise GenerationError(
        f"no {what} of {n} points in dim {d} within {DEFAULT_RETRIES} tries (seed {seed})")


def random_point_set(n: int, d: int, seed: int) -> PointSet:
    """Uniform integer coordinates in [-max(2nd, 16), max(2nd, 16)], retried
    until the set is in general linear position."""
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return _draw_until(is_general_linear_position, "GLP set", n, d, seed)[0]


def map_generic_set(n: int, mmap: MonomialMap, seed: int) -> PointSet:
    """A seeded integer set whose image under ``mmap`` is in general linear
    position.  The source points lie on pairwise distinct lines through the
    origin if ``mmap`` is homogeneous (every term of one total degree), and
    are in general linear position otherwise."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return _draw_lift(n, mmap, seed, is_general_linear_position)[0]


def _draw_lift(n: int, mmap: MonomialMap, seed: int, lift_check) -> tuple[PointSet, object]:
    """(ps, lift_check(mmap.apply(ps))) for the first draw ps of
    ``map_generic_set``'s seeded stream whose source meets the map's
    condition, checked first, and whose lift lift_check answers truthy."""
    homogeneous = len({sum(e) for terms in mmap.coords for _, e in terms}) == 1
    source_ok = _origin_lines_distinct if homogeneous else is_general_linear_position

    def admissible(ps: PointSet):
        return source_ok(ps) and lift_check(mmap.apply(ps))

    return _draw_until(admissible, "admissible set", n, mmap.source_dim, seed)


def _origin_lines_distinct(ps: PointSet) -> bool:
    """Each pair of integer parts X_i, X_j of ``PointSet.rows`` has a nonzero
    2x2 minor, so a point at the origin, or any pair in dim 1, fails."""
    xs = [row[:-1] for row in ps.rows]
    axes = list(combinations(range(ps.dim), 2))
    return not any(all(a[r] * b[s] == a[s] * b[r] for r, s in axes)
                   for a, b in combinations(xs, 2))


def check_distinct_first_coordinate(ps: PointSet) -> bool:
    """True if the first coordinates X_0 / D of the rows are pairwise
    distinct, compared as the integers X_0 * L / D for L = lcm of the D's."""
    den = lcm(*(row[-1] for row in ps.rows))
    return len({row[0] * (den // row[-1]) for row in ps.rows}) == ps.n


def distinct_first_coordinate_set(n: int, d: int, seed: int) -> PointSet:
    """GLP set with pairwise distinct first coordinates."""
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return _draw_until(
        lambda ps: check_distinct_first_coordinate(ps) and is_general_linear_position(ps),
        "distinct-x1 GLP set", n, d, seed)[0]


def _moment_vertex_certificate(ps: PointSet, i: int) -> FaceCertificate | None:
    """Strict vertex certificate for point i of a moment-curve set with
    increasing parameters, or None if there is none.

    For d >= 2 the hyperplane -2 t_i x_1 + x_2 = -t_i^2 evaluates to
    (t - t_i)^2 at the point with parameter t, zero only at t_i; times D^2,
    (-2 X D, D^2, 0, ...) . x = -X^2 on the row (X, ..., D) of t_i = X / D.
    For d = 1 only the end points are vertices: D x = X first, -D x = -X last.
    """
    x, *_, den = ps.rows[i]
    if ps.dim >= 2:
        plane = Hyperplane((-2 * x * den, den * den) + (0,) * (ps.dim - 2), -x * x)
    elif i == 0:
        plane = Hyperplane((den,), x)
    elif i == ps.n - 1:
        plane = Hyperplane((-den,), -x)
    else:
        return None
    return FaceCertificate(hyperplane=plane, strict=True)


def convex_position_set(n: int, d: int, seed: int) -> PointSet:
    """n points in convex and general position in dim d, built on the moment
    curve with seeded distinct integer parameters and certified afterwards:
    the set must be GLP and every singleton a strict face, each checked by
    substituting its certificate."""
    if d < 1 or n <= d:
        raise InputError(f"need n > d >= 1, got n={n}, d={d}")
    if d == 1 and n > 2:
        raise InputError(f"in dimension 1 only 2 points can be in convex position, got n={n}")
    rng = random.Random(seed)
    params = sorted(rng.sample(range(-3 * n, 3 * n + 1), n))
    ps = moment_curve(d).apply(point_set([[t] for t in params]))
    if not is_general_linear_position(ps):
        raise GenerationError("moment-curve set unexpectedly degenerate")
    for i in range(n):
        if not _moment_vertex_certificate(ps, i).validate(ps, (i,)):
            raise RuntimeError(f"vertex certificate of point {i} failed substitution")
    return ps


def generate(mode: str, n: int, d: int, seed: int) -> PointSet:
    """CLI entry: mode is one of glp, conic, hom:<m>, convex, distinct-x1."""
    if mode == "glp":
        return random_point_set(n, d, seed)
    if mode == "conic":
        if d != 2:
            raise InputError("conic mode needs d = 2")
        return map_generic_set(n, veronese(2, 2), seed)
    if mode.startswith("hom:"):
        if d != 2:
            raise InputError("hom mode needs d = 2")
        try:
            m = int(mode.split(":", 1)[1])
        except ValueError:
            raise InputError(f"hom mode needs an integer m, got {mode!r}") from None
        if m < 2 or m % 2:
            raise InputError(f"m must be even and >= 2, got {m}")
        return map_generic_set(n, homogeneous_veronese(2, m), seed)
    if mode == "convex":
        return convex_position_set(n, d, seed)
    if mode == "distinct-x1":
        return distinct_first_coordinate_set(n, d, seed)
    raise InputError(f"unknown generation mode {mode!r}")
