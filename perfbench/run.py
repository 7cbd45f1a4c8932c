"""kfacets benchmark: one workload's fixed input set, measured in whole cycles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run measures a fixed input set: every
instance of the seed (``jobs.py``).  A cycle runs the job list of every
instance once, in one fresh interpreter (``worker.py``), serially, with
``KFL_WORKERS`` unset.  Whole cycles run, at least ``MIN_CYCLES``, and more
while the next one is expected to end within ``--seconds``.  The last stdout
line is one JSON object:

* ``--trace 0``: the end-to-end metrics.  ``wall_s`` (time to solution of
  the whole input set) and ``cpu_s`` are the sum, over every job of every
  instance, of the job's median time over the cycles, each time scaled to
  the reference host speed by the probes taken next to it
  (``hostspeed.py``).  ``setup_s`` (interpreter start to kfacets imported
  and every input built, scaled by the probes just before the worker
  starts and just after its set-up) is the median over the cycles and
  ``SETUP_RUNS`` set-up-only workers started before them; ``peak_rss_mb``
  is the median over the cycles;
* ``--trace 1``: the per-layer metrics of ``tracer.layer_metrics`` (the
  lower median over traced cycles; counts are exact; times unscaled), plus
  ``trace.wall_s`` (the traced job time, unscaled, which the layer self
  times sum to), ``trace.overhead_s`` (traced minus untraced ``wall_s``,
  each taken as above), ``host.calib_s`` and ``fail_ratio``.  A traced
  cycle runs the input set once untraced and once traced.

``attempted`` and ``failed`` count jobs over all cycles; a job fails when it
raises or its output check fails, so ``failed / attempted`` is the run's
fail ratio.  ``host.calib_s``, the host-speed probe taken at the start of
the run, and the raw (unscaled) times go to stderr on every run, so that a
throttled host shows.  ``--size tiny`` runs the
same jobs at small sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from hostspeed import probe, scaled  # noqa: E402

MIN_CYCLES = 1
SETUP_RUNS = 4  # set-up-only workers per untraced run, for a steadier setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a job failing its check)."""


def spawn(workload: str, seed: int, size: str, limit: float, trace: bool = False,
          spans: Path | None = None, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter, killed at ``limit``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != "KFL_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    spawn_probe = probe()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(1.0, limit - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_scaled_s"] = scaled(rep["setup_s"], (spawn_probe + rep["setup_probe_s"]) / 2)
    return rep


def job_total(reps: list[dict], key: str) -> float:
    """Sum over jobs of the job's median scaled time among ``reps`` (same inputs)."""
    names = reps[0][key]
    return sum(statistics.median(scaled(r[key][name], r["job_probe_s"][name]) for r in reps)
               for name in names)


def raw_total(reps: list[dict], key: str) -> float:
    """Sum over jobs of the job's fastest unscaled time among ``reps``."""
    names = reps[0][key]
    return sum(min(r[key][name] for r in reps) for name in names)


def cycles(workload: str, seed: int, seconds: float, size: str, trace: bool
           ) -> tuple[list[dict], list[dict], list[dict]]:
    """Set-up-only workers (untraced runs), then whole cycles over the
    workload's input set while the next one fits.

    Untraced, a cycle runs the input set once; traced, once untraced and once
    traced.  At least ``MIN_CYCLES`` run.
    """
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    limit = time.perf_counter() + RUN_LIMIT_S
    durations: list[float] = []
    setups = [] if trace else [spawn(workload, seed, size, limit, setup_only=True)
                               for _ in range(SETUP_RUNS)]
    while True:
        start = time.perf_counter()
        plain.append(spawn(workload, seed, size, limit))
        if trace:
            spans = out_dir / f"spans-{workload}-seed{seed}-{len(traced)}.json"
            traced.append(spawn(workload, seed, size, limit, trace=True, spans=spans))
        durations.append(time.perf_counter() - start)
        if (len(durations) >= MIN_CYCLES
                and time.perf_counter() + max(durations) > deadline):
            return setups, plain, traced


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    calib_s = probe()
    print(f"host.calib_s {calib_s:.6f}", file=sys.stderr)
    setups, plain, traced = cycles(workload, seed, seconds, size, trace)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})", file=sys.stderr)
    for label, rows in (("untraced", plain), ("traced", traced)):
        if rows:
            walls = " ".join(f"{r['wall_s']:.3f}" for r in rows)
            print(f"{label} unscaled wall_s per cycle: {walls}; fastest per job, summed: "
                  f"{raw_total(rows, 'job_wall_s'):.3f}", file=sys.stderr)

    if trace:
        metrics = {}
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            # median_low keeps exact counts integral
            metrics[name] = statistics.median_low(layer[name] for layer in layers)
        # unscaled, like the layer self times it is the sum of
        metrics["trace.wall_s"] = statistics.median_low(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = (job_total(traced, "job_wall_s")
                                       - job_total(plain, "job_wall_s"))
        metrics["host.calib_s"] = calib_s
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics = {
            "wall_s": job_total(plain, "job_wall_s"),
            "cpu_s": job_total(plain, "job_cpu_s"),
            "setup_s": statistics.median(r["setup_scaled_s"] for r in setups + plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kfacets" / "__init__.py").is_file():
        print(f"error: no kfacets source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    unit_of = units()
    result["metrics"] = {
        name: {"value": value, "unit": unit_of[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
