"""Batch command line interface.

Subcommands: gen, lift, count, certify, verify, formula, project, radon.
Reports are canonical JSON (sorted keys), so identical inputs and seeds give
bit-identical output.  Exit codes: 0 ok, 1 a check failed, 2 bad input,
3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import combinations
from pathlib import Path

from . import facelab, facets, formulas, genpos, projection, serialize
from .errors import DegeneracyError, GenerationError, InputError
from .geometry import PointSet
from .liftmaps import circle_map, homogeneous_veronese, neighborly_embedding, veronese


def _ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputError(f"{what} must be integers, got {tokens}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    ps = genpos.generate(args.mode, args.n, args.d, args.seed)
    _emit(serialize.dumps(serialize.point_set_to_json(ps)), args.out)
    return 0


def _cmd_lift(args) -> int:
    ps = serialize.load_point_set(args.infile)
    lifted = serialize.resolve_map(args.map).apply(ps)
    _emit(serialize.dumps(serialize.point_set_to_json(lifted)), args.out)
    return 0


def _cmd_count(args) -> int:
    if args.csv and (args.mode == "sets" or args.k is not None):
        raise InputError("--csv prints only the k-facet profile; "
                         "it takes neither --mode sets nor --k")
    ps = serialize.load_point_set(args.infile)
    if args.map:
        ps = serialize.resolve_map(args.map).apply(ps)
    if args.csv:
        _emit(serialize.profile_to_csv(facets.k_facet_profile(ps)), args.out)
        return 0
    obj = {"n": ps.n, "p": ps.dim}
    if args.mode == "sets" and args.k is None:
        obj["kset_counts"] = list(facets.k_set_counts(ps))
    elif args.mode == "sets":
        obj["k"] = args.k
        obj["ksets"] = [list(s) for s in facets.enumerate_k_sets(ps, args.k).sets]
    else:
        # the listing refuses a bad k before its walk, and reads the profile off it
        profile, listed = ((facets.k_facet_profile(ps), []) if args.k is None
                           else facets.enumerate_k_facets(ps, args.k))
        obj["profile"] = list(profile.e)
        if args.k is not None:
            obj["facets"] = [{"indices": list(f.indices), "sign": f.sign, "k": f.k}
                             for f in listed]
    _emit(serialize.dumps(obj), args.out)
    return 0


def _cmd_certify(args) -> int:
    ps = serialize.load_point_set(args.infile)
    if args.map:
        ps = serialize.resolve_map(args.map).apply(ps)
    subset = tuple(_ints(args.subset.split(","), "--subset"))
    cert = facelab.face_certificate(ps, subset, strict=not args.weak)
    obj = {"subset": list(subset),
           "certificate": serialize.certificate_to_json(cert) if cert else None}
    _emit(serialize.dumps(obj), args.out)
    return 0


def _cmd_project(args) -> int:
    ps = serialize.load_point_set(args.infile)
    v, k = args.vertex, args.k
    if not 0 <= v < ps.n:
        raise InputError(f"vertex index {v} out of range")
    if ps.n < ps.dim:
        raise InputError(f"need at least dim = {ps.dim} points, got {ps.n}")
    if not 0 <= k <= ps.n - ps.dim:
        raise InputError(f"k must be in 0..{ps.n - ps.dim}, got {k}")
    if ps.dim < 2:
        raise InputError(f"projection needs dim >= 2, got {ps.dim}")
    _, table, planes = projection.census(ps)
    through = table[v][k]
    image = projection.stereographic_project(ps, v, planes[v])
    image_count = facets.k_facet_profile(image).e[k]
    obj = {
        "vertex": v,
        "k": k,
        "facets_through_vertex": through,
        "projected_e_k": image_count,
        "pass": through == image_count,
    }
    _emit(serialize.dumps(obj), args.out)
    return 0 if obj["pass"] else 1


def _cmd_radon(args) -> int:
    ps = serialize.load_point_set(args.infile)
    witness = facelab.radon_partition(ps)
    _emit(serialize.dumps(serialize.radon_to_json(ps, witness)), args.out)
    return 0


def _cmd_formula(args) -> int:
    spec = formulas.FORMULAS.get(args.name)
    if spec is None:
        raise InputError(
            f"unknown formula {args.name!r}; known: {', '.join(sorted(formulas.FORMULAS))}")
    values = _ints(args.args, f"{spec.name} arguments")
    if args.k_range:
        bounds = _ints(args.k_range.split(":"), "--k-range")
        if len(bounds) != 2:
            raise InputError(f"--k-range must be A:B, got {args.k_range!r}")
        lo, hi = bounds
        if lo > hi:
            raise InputError(f"--k-range needs A <= B, got {args.k_range!r}")
        if spec.params[-1] != "k":
            raise InputError(f"{spec.name} has no k parameter to range over")
        if len(values) != len(spec.params) - 1:
            raise InputError(
                f"{spec.name} needs values for {spec.params[:-1]}, got {values}")
        lines = ["k,value"]
        for k in range(lo, hi + 1):
            lines.append(f"{k},{serialize.exact_str(spec.fn(*values, k))}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if len(values) != len(spec.params):
        raise InputError(f"{spec.name} takes {spec.params}, got {values}")
    _emit(serialize.exact_str(spec.fn(*values)) + "\n", args.out)
    return 0


# --- verify -------------------------------------------------------------------

def _report(theorem: str, params: dict, seed: int, expected, measured,
            instance: PointSet) -> dict:
    ok = expected == measured
    obj = {
        "theorem": theorem,
        "params": params,
        "seed": seed,
        "expected": expected,
        "measured": measured,
        "pass": ok,
    }
    if not ok:
        obj["instance"] = serialize.point_set_to_json(instance)
    return obj


def _verify_circles(n: int, seed: int) -> dict:
    if n < 5 or n % 2 == 0:
        raise InputError("circles needs odd n >= 5")
    ps, profile = genpos._draw_lift(n, circle_map(), seed, facets.k_facet_profile)
    m = (n - 1) // 2
    expected = {
        "profile": [formulas.circle_count(n, k) for k in range(n - 2)],
        "halving": m * m,
    }
    measured = {
        "profile": list(profile.e),
        "halving": profile.unoriented_halving(),
    }
    return _report("circles", {"n": n}, seed, expected, measured, ps)


def _verify_conics(n: int, seed: int) -> dict:
    if n < 6:
        raise InputError("conics needs n >= 6")
    ps, profile = genpos._draw_lift(n, veronese(2, 2), seed, facets.k_facet_profile)
    expected = [formulas.conic_count(n, k) for k in range(n - 4)]
    return _report("conics", {"n": n}, seed, expected, list(profile.e), ps)


def _verify_homogeneous(n: int, m: int, seed: int) -> dict:
    if m < 2 or m % 2:
        raise InputError("homogeneous needs even m >= 2")
    if n <= m + 1:
        raise InputError(f"homogeneous needs n > m + 1 = {m + 1}")
    ps, profile = genpos._draw_lift(n, homogeneous_veronese(2, m), seed, facets.k_facet_profile)
    expected = [formulas.homogeneous_count(n, m, k) for k in range(n - m)]
    return _report("homogeneous", {"n": n, "m": m}, seed, expected,
                   list(profile.e), ps)


def _degree_by_construction(lifted: PointSet, cap: int, build) -> int:
    """Largest k <= cap such that build(subset) gives, for every subset of
    size <= k, a certificate that passes substitution against lifted."""
    for size in range(1, cap + 1):
        for subset in combinations(range(lifted.n), size):
            cert = build(subset)
            if cert is None or not cert.validate(lifted, subset):
                return size - 1
    return cap


def _verify_veronese_neighborly(n: int, m: int, seed: int) -> dict:
    if m < 2 or m % 2:
        raise InputError("veronese-neighborly needs even m >= 2")
    if n < 2:
        raise InputError("veronese-neighborly needs n >= 2")
    half = m // 2
    target = formulas.binom(half + 2, half) - 1
    if m == 2:
        ps = genpos.random_point_set(n, 2, seed)
    else:
        ps = genpos.map_generic_set(n, veronese(2, half), seed)
    lifted = veronese(2, m).apply(ps)
    cap = min(target, n - 1)
    degree = _degree_by_construction(
        lifted, cap, facelab.veronese_certifier(ps, m))
    measured = {"degree": degree}
    expected = {"degree": cap}
    if m == 2:
        # the squared line through each pair is its certificate, so the degree
        # reaches the cap exactly when every pair's certificate passed
        expected["pair_certificates"] = True
        measured["pair_certificates"] = degree == cap
    return _report("veronese-neighborly", {"n": n, "m": m}, seed,
                   expected, measured, ps)


def _verify_embedding(k: int, d: int, n: int, seed: int) -> dict:
    if k < 1 or d < 1:
        raise InputError("embedding needs k >= 1 and d >= 1")
    if n < 2:
        raise InputError("embedding needs n >= 2")
    ps = genpos.distinct_first_coordinate_set(n, d, seed)
    lifted = neighborly_embedding(k, d).apply(ps)
    cap = min(k, n - 1)
    degree = _degree_by_construction(
        lifted, cap, lambda subset: facelab.embedding_face_certificate(ps, subset, k))
    # a failing certificate of any size below the cap extends to a failing one
    # of size cap, so reaching the cap means every top-size certificate passed
    expected = {"degree": cap, "certificates": True}
    measured = {"degree": degree, "certificates": degree == cap}
    return _report("embedding", {"k": k, "d": d, "n": n}, seed,
                   expected, measured, ps)


def _verify_projection(n: int, d: int, seed: int) -> dict:
    if d < 2:
        raise InputError("projection needs d >= 2")
    ps = genpos.convex_position_set(n, d, seed)
    profile, through, planes = projection.census(ps)
    levels = range(n - d + 1)
    mismatches = []
    for v in range(n):
        image = projection.stereographic_project(ps, v, planes[v])
        image_profile = facets.k_facet_profile(image)
        for k in levels:
            if through[v][k] != image_profile.e[k]:
                mismatches.append({"vertex": v, "k": k, "through": through[v][k],
                                   "projected": image_profile.e[k]})
    sums_ok = all(sum(row[k] for row in through) == d * profile.e[k]
                  for k in levels)
    expected = {"mismatches": [], "sum_identity": True}
    measured = {"mismatches": mismatches, "sum_identity": sums_ok}
    return _report("projection", {"n": n, "d": d}, seed, expected, measured, ps)


def _verify_radon(d: int, seed: int) -> dict:
    if d < 1:
        raise InputError("radon needs d >= 1")
    ps = genpos.random_point_set(d + 2, d, seed)
    # radon_partition returns only a validated witness of a GLP set.  A weak
    # separator h has h <= 0 on one part and h >= 0 on the other; both parts
    # mix with positive weights to one point c, so h(c) = 0 puts all dim + 2
    # points on h, which general position forbids
    witness = facelab.radon_partition(ps)
    measured = {"witness_valid": witness.validate(ps), "weak_separation": False}
    expected = {"witness_valid": True, "weak_separation": False}
    return _report("radon", {"d": d}, seed, expected, measured, ps)


def _verify_weakly(k: int, seed: int) -> dict:
    if k < 1:
        raise InputError("weakly needs k >= 1")
    n, d = 2 * k + 1, 2 * k - 1
    ps = genpos.random_point_set(n, d, seed)
    ok, _ = facelab.is_weakly_k_neighborly(ps, k)
    measured = {"weakly_k_neighborly": ok}
    expected = {"weakly_k_neighborly": False}
    return _report("weakly", {"k": k}, seed, expected, measured, ps)


# theorem name -> (checker, parameter names pulled from the CLI namespace)
VERIFIERS = {
    "circles": (_verify_circles, ("n",)),
    "conics": (_verify_conics, ("n",)),
    "homogeneous": (_verify_homogeneous, ("n", "m")),
    "veronese-neighborly": (_verify_veronese_neighborly, ("n", "m")),
    "embedding": (_verify_embedding, ("k", "d", "n")),
    "projection": (_verify_projection, ("n", "d")),
    "radon": (_verify_radon, ("d",)),
    "weakly": (_verify_weakly, ("k",)),
}


def run_verifier(theorem: str, seed: int, **params) -> dict:
    """Programmatic entry to the theorem checkers; returns the JSON report."""
    entry = VERIFIERS.get(theorem)
    if entry is None:
        raise InputError(f"unknown theorem {theorem!r}")
    fn, names = entry
    unknown = set(params) - set(names)
    if unknown:
        raise InputError(f"{theorem} does not take {sorted(unknown)}")
    return fn(seed=seed, **params)


# a theorem's own parameters default to these; a flag it does not take is an error
VERIFY_DEFAULTS = {"n": 7, "m": 2, "k": 2, "d": 2}


def _cmd_verify(args) -> int:
    _, names = VERIFIERS[args.theorem]
    given = {name: v for name in VERIFY_DEFAULTS if (v := getattr(args, name)) is not None}
    report = run_verifier(args.theorem, args.seed,
                          **{name: VERIFY_DEFAULTS[name] for name in names} | given)
    _emit(serialize.dumps(report), args.out)
    return 0 if report["pass"] else 1


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are bad input like any other:
    one ``error:`` line and exit 2, with no usage block.  Its subcommand
    parsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kfacets`` parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = _Parser(
        prog="kfacets",
        description="Exact k-set / k-facet enumeration of lifted point sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("gen", help="generate a seeded point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", default="glp",
                   help="glp | conic | hom:<m> | convex | distinct-x1")
    add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("lift", help="apply a lifting map to a point set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", required=True,
                   help="veronese:d:m | hveronese:d:m | circle | moment:d | embed:k:d | custom:<file>")
    add_common(p)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("count", help="enumerate k-facets or k-sets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", default=None, help="optional lift before counting")
    p.add_argument("--mode", choices=["facets", "sets"], default="facets")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="emit the profile as CSV")
    add_common(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("certify", help="face certificate for a subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", default=None)
    p.add_argument("--subset", required=True, help="comma-separated indices")
    p.add_argument("--weak", action="store_true")
    add_common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("project", help="stereographic projection count check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("radon", help="radon partition of dim + 2 points")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_radon)

    p = sub.add_parser("formula", help="evaluate a count formula")
    p.add_argument("name")
    p.add_argument("args", nargs="*")
    p.add_argument("--k-range", default=None, help="A:B inclusive; emit CSV over k")
    add_common(p)
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("verify", help="check a theorem on a seeded instance")
    p.add_argument("theorem", choices=list(VERIFIERS))
    p.add_argument("--seed", type=int, required=True)
    for name, value in VERIFY_DEFAULTS.items():
        p.add_argument(f"--{name}", type=int, default=None,
                       help=f"default {value}, for a theorem that takes it")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (InputError, DegeneracyError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a certificate that failed substitution, an unbounded LP: a fault
        # of the program, not of the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # any other fault must not read as exit 1, "check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
