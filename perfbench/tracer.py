"""Spans around calls into kfacets, recorded from outside the package.

``Tracer.instrument()`` replaces each public function of every ``kfacets``
module with a timing wrapper at *every* module binding that refers to it, so
``from``-imports (``facelab.maximize``, ``facets.separation_hyperplane``,
``genpos.is_general_linear_position``, ...) are traced as well.  A few
methods named in ``METHODS`` are wrapped on their class.  Integer kernels
called from inner loops (``LEAVES``) are left alone; their time is self time
of the caller.

Spans stay in memory as ``[name, parent, start, end, info]`` lists, with
``parent`` the index of the enclosing span (-1 for a root).  ``info`` holds
the few facts a per-layer metric needs (LP size, denominator bits, subset
count, whether a query found something), computed after the span's end
time.  Spans are recorded only while ``active`` is true, so set-up and
output checks leave no trace.
"""

from __future__ import annotations

import statistics
import sys
import time
from math import comb
from types import FunctionType

LEAVES = {
    "geometry.rational", "geometry.format_rational",
    "geometry.det_int", "geometry.rank_int",
}
METHODS = (
    ("kfacets.liftmaps", "MonomialMap", "apply"),
    ("kfacets.facelab", "FaceCertificate", "validate"),
    ("kfacets.facelab", "RadonWitness", "validate"),
)

# one sweep over all p-subsets per call; count_unoriented_halving sweeps
# through k_facet_profile and k_set_counts through enumerate_k_sets
SWEEPS = {
    "facets.k_facet_profile", "facets.enumerate_k_facets",
    "facets.enumerate_k_sets", "projection.facets_through_vertex",
}
GENERATORS = {
    "genpos.random_point_set", "genpos.map_generic_set",
    "genpos.distinct_first_coordinate_set", "genpos.convex_position_set",
    "genpos.generate",
}
CONSTRUCTIVE = {"facelab.conic_edge_certificate", "facelab.embedding_face_certificate"}
LP_QUERIES = {"facelab.face_certificate", "facelab.separation_hyperplane",
              "facelab.weak_separation"}
MODULES = ("cli", "genpos", "geometry", "liftmaps", "facets", "projection",
           "facelab", "simplex", "serialize", "formulas")

# the exact counters later changes may cite as counts
EXACT_COUNTERS = ("simplex.solves", "facets.subsets", "geometry.orientation.calls",
                  "facelab.separation.calls", "genpos.glp_checks")

# per-layer metrics -> the end-to-end metrics they should move, on which workload
LAYER_MAP = {
    "genpos.total_s genpos.glp_checks genpos.accept_ratio geometry.self_s "
    "geometry.orientation.calls":
        "wall_s and cpu_s on lift-count; about 0 on face-lp",
    "liftmaps.self_s liftmaps.apply.calls": "wall_s on lift-count (small)",
    "facets.self_s facets.sweeps facets.subsets facets.subsets_per_s":
        "wall_s on lift-count and reuse-sweep; peak_rss_mb on lift-count",
    "facets.ksets.candidates facelab.separation.calls "
    "facelab.separation.accept_ratio":
        "wall_s on reuse-sweep; no change predicted on degenerate",
    "projection.self_s projection.through_vertex.calls projection.project.calls":
        "wall_s on reuse-sweep",
    "simplex.self_s simplex.solves simplex.solve_s.p50 simplex.solve_s.p90 "
    "simplex.tableau_cells simplex.max_denom_bits":
        "wall_s on face-lp, then on degenerate",
    "facelab.self_s facelab.face.calls facelab.face.found_ratio "
    "facelab.constructive.calls facelab.lps_per_query": "wall_s on face-lp",
    "serialize.self_s serialize.bytes_out cli.self_s":
        "under 1% of wall_s everywhere; no movement predicted (guards I/O growth)",
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
    "host.calib_s": "none: host speed, to recognise a throttled run",
}


def _lp_info(args, kwargs, result):
    objective, rows = args[0], args[1]
    nv, m = len(objective), len(rows)
    value, x = result
    bits = max(f.denominator.bit_length() for f in [value, *x])
    return (m + 1) * (2 * nv + m + 1), bits


def _sweep_info(args, kwargs, result):
    ps = args[0]
    return comb(ps.n, ps.dim)


def _found(args, kwargs, result):
    return result is not None


def _text_bytes(args, kwargs, result):
    return len(result.encode()) if isinstance(result, str) else 0


PROBES = {
    "simplex.maximize": _lp_info,
    "facelab.face_certificate": _found,
    "facelab.separation_hyperplane": _found,
    "serialize.dumps": _text_bytes,
    "serialize.profile_to_csv": _text_bytes,
    "serialize.point_set_to_csv": _text_bytes,
    **{name: _sweep_info for name in SWEEPS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, result)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every public kfacets function at each binding that holds it."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "kfacets" or name.startswith("kfacets.")}
        wrappers = {}
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (isinstance(val, FunctionType) and not attr.startswith("_")
                        and val.__module__ == modname and name not in LEAVES):
                    wrappers[val] = self._wrap(name, val)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, FunctionType) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for modname, cls_name, meth in METHODS:
            cls = getattr(mods[modname], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            short = modname.rsplit(".", 1)[-1]
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstrument(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counters and self times derived from one run's spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(MODULES, 0.0)
    calls: dict[str, int] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        mod = _module(name)
        self_s[mod] = self_s.get(mod, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1

    def parent_module(span) -> str | None:
        return _module(spans[span[1]][0]) if span[1] >= 0 else None

    def outer(span, mod: str) -> bool:
        # no enclosing span of the same module
        p = span[1]
        while p >= 0:
            if _module(spans[p][0]) == mod:
                return False
            p = spans[p][1]
        return True

    genpos_outer = [s for s in spans if _module(s[0]) == "genpos" and outer(s, "genpos")]
    glp_checks = sum(1 for s in spans
                     if s[0] == "geometry.is_general_linear_position"
                     and parent_module(s) == "genpos")
    accepted = sum(1 for s in genpos_outer if s[0] in GENERATORS)

    sweeps = [s for s in spans if s[0] in SWEEPS]
    subsets = sum(s[4] for s in sweeps if s[4] is not None)
    sweep_self = sum(spans[i][3] - spans[i][2] - child_time[i]
                     for i, s in enumerate(spans) if s[0] in SWEEPS)

    seps = [s for s in spans if s[0] == "facelab.separation_hyperplane"]
    faces = [s for s in spans if s[0] == "facelab.face_certificate"]
    lps = [s for s in spans if s[0] == "simplex.maximize"]
    solve_s = [s[3] - s[2] for s in lps]
    lp_info = [s[4] for s in lps if s[4] is not None]
    queries = sum(calls.get(name, 0) for name in LP_QUERIES)

    metrics = {f"{mod}.self_s": t for mod, t in self_s.items()}
    metrics.update({
        "genpos.total_s": sum(s[3] - s[2] for s in genpos_outer),
        "genpos.glp_checks": glp_checks,
        "genpos.accept_ratio": _ratio(accepted, glp_checks),
        "geometry.orientation.calls": calls.get("geometry.orientation", 0),
        "liftmaps.apply.calls": calls.get("liftmaps.MonomialMap.apply", 0),
        "facets.sweeps": len(sweeps),
        "facets.subsets": subsets,
        "facets.subsets_per_s": _ratio(subsets, sweep_self),
        "facets.ksets.candidates": sum(
            1 for s in seps if s[1] >= 0 and spans[s[1]][0] == "facets.enumerate_k_sets"),
        "facelab.separation.calls": len(seps),
        "facelab.separation.accept_ratio": _ratio(sum(1 for s in seps if s[4]), len(seps)),
        "projection.through_vertex.calls": calls.get("projection.facets_through_vertex", 0),
        "projection.project.calls": calls.get("projection.stereographic_project", 0),
        "simplex.solves": len(lps),
        "simplex.solve_s.p50": statistics.median(solve_s) if solve_s else 0.0,
        "simplex.solve_s.p90": (statistics.quantiles(solve_s, n=10)[8]
                                if len(solve_s) > 1 else sum(solve_s)),
        "simplex.tableau_cells": sum(cells for cells, _ in lp_info),
        "simplex.max_denom_bits": max((bits for _, bits in lp_info), default=0),
        "facelab.face.calls": len(faces),
        "facelab.face.found_ratio": _ratio(sum(1 for s in faces if s[4]), len(faces)),
        "facelab.constructive.calls": sum(calls.get(name, 0) for name in CONSTRUCTIVE),
        "facelab.lps_per_query": _ratio(len(lps), queries),
        "serialize.bytes_out": sum(s[4] for s in spans
                                   if _module(s[0]) == "serialize" and s[4]),
    })
    return metrics


def span_records(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records."""
    return [{"id": i, "name": name, "parent": parent, "start": start,
             "end": end, "info": info}
            for i, (name, parent, start, end, info) in enumerate(spans)]
