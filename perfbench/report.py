"""Run every workload over several seeds and print every metric with its unit.

    python3 perfbench/report.py [--seeds 0-9] [--trace-seeds 0] [--baseline]

Each ``run.py`` call is a fresh process, and the workloads are interleaved:
for each seed, every workload runs once before the next seed starts.  Then
each workload runs traced at every ``--trace-seeds`` seed.  The table gives,
per workload, each end-to-end metric's median and quartiles over the seeds
and its spread ((Q3 - Q1) / median, the quartiles of
``statistics.quantiles(values, n=4)``) against the bound in BENCHMARK.json;
the fail ratio over all runs; and every per-layer metric of the traced runs.
It ends with the layer rankings each workload was chosen to show.

``--baseline`` writes ``baseline.json`` (medians, quartiles, exact counters,
the layer map and the workload reasons).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    calib = [float(line.split()[1]) for line in proc.stderr.splitlines()
             if line.startswith("host.calib_s ")]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"  {workload:12s} seed {seed:3d} trace {trace}: {elapsed:5.1f} s, "
          f"{result['failed']}/{result['attempted']} failed", file=sys.stderr, flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "host.calib_s": calib[0] if calib else None, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """Per workload: end-to-end quartiles, fail ratio, per-layer medians."""
    out = {}
    for wl in jobs.WORKLOADS:
        plain = [r for r in runs if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == wl and r["trace"] == 1]
        if not plain and not traced:
            continue
        entry = {"runs": len(plain), "seeds": sorted({r["seed"] for r in plain}),
                 "end_to_end": {}, "per_layer": {}}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"]}
        attempted = sum(r["attempted"] for r in plain + traced)
        failed = sum(r["failed"] for r in plain + traced)
        entry["fail_ratio"] = failed / attempted
        for metric in SPEC["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in traced]
            if values:
                entry["per_layer"][metric["name"]] = {
                    "unit": metric["unit"], "median": statistics.median(values),
                    "values": values}
        out[wl] = entry
    return out


def rankings(summary: dict) -> list[tuple[str, bool]]:
    """The traced layer rankings that motivated each workload."""
    def layer(wl: str, name: str) -> float | None:
        got = summary.get(wl, {}).get("per_layer", {}).get(name)
        return got["values"][0] if got else None

    checks = []
    lc = [layer("lift-count", n) for n in ("genpos.total_s", "facets.self_s")]
    if None not in lc:
        checks.append(("lift-count: genpos+geometry (genpos.total_s) > facets.self_s",
                       lc[0] > lc[1]))
    fl = [layer("face-lp", n) for n in ("simplex.self_s", "trace.wall_s")]
    if None not in fl:
        checks.append((f"face-lp: simplex.self_s is {fl[0] / fl[1]:.1%} of traced wall_s (>= 90%)",
                       fl[0] >= 0.9 * fl[1]))
    selfs = {m: layer("reuse-sweep", f"{m}.self_s") for m in tracer.MODULES}
    if None not in selfs.values():
        top = max(selfs, key=selfs.get)
        checks.append((f"reuse-sweep: largest module is {top} (projection)", top == "projection"))
    gen = layer("reuse-sweep", "facelab.separation.accept_ratio")
    deg = layer("degenerate", "facelab.separation.accept_ratio")
    if gen is not None:
        checks.append((f"reuse-sweep: separation accept ratio {gen:.3f} (1.0)", gen == 1.0))
    if deg is not None:
        checks.append((f"degenerate: separation accept ratio {deg:.3f} (< 1.0)", deg < 1.0))
    return checks


def print_table(summary: dict) -> None:
    for wl, entry in summary.items():
        print(f"\n== {wl}: {entry['runs']} untraced runs, seeds {entry['seeds']}")
        print(f"   fail_ratio  {entry['fail_ratio']:.4f} 1")
        for name, m in entry["end_to_end"].items():
            flag = "ok" if m["spread"] <= m["bound"] else "OVER BOUND"
            print(f"   {name:12s} median {m['median']:10.4f} {m['unit']:3s}  "
                  f"Q1 {m['q1']:.4f}  Q3 {m['q3']:.4f}  spread {m['spread']:.3f} "
                  f"(bound {m['bound']}, {flag})")
        for name, m in entry["per_layer"].items():
            print(f"   {name:34s} {m['median']:14.6g} {m['unit']}")
    print()
    for text, ok in rankings(summary):
        print(f"{'PASS' if ok else 'FAIL'}  {text}")


def write_baseline(summary: dict, runs: list[dict]) -> None:
    baseline = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "host.calib_s": [r["host.calib_s"] for r in runs]},
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
        "layer_map": tracer.LAYER_MAP,
    }
    for wl, entry in summary.items():
        baseline["workloads"][wl] = {
            "why": jobs.WORKLOADS[wl].why,
            "seeds": entry["seeds"],
            "fail_ratio": entry["fail_ratio"],
            "end_to_end": {k: {f: v[f] for f in ("unit", "median", "q1", "q3", "spread")}
                           for k, v in entry["end_to_end"].items()},
            "counters_at_seed": {
                str(r["seed"]): {c: r["metrics"][c]["value"] for c in tracer.EXACT_COUNTERS}
                for r in runs if r["workload"] == wl and r["trace"] == 1},
            "per_layer_median": {k: v["median"] for k, v in entry["per_layer"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seeds", default="0")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    runs = []
    for seed in seed_list(args.seeds):
        for wl in jobs.WORKLOADS:
            runs.append(bench(wl, seed, 0))
    for seed in seed_list(args.trace_seeds) if args.trace_seeds else []:
        for wl in jobs.WORKLOADS:
            runs.append(bench(wl, seed, 1))
    summary = summarize(runs)
    print_table(summary)
    if args.baseline:
        write_baseline(summary, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
