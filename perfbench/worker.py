"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
        [--size full|tiny] [--trace] [--spans FILE] [--t0 T] [--setup-only]

Imports kfacets from the checkout's ``src``, builds the inputs of every job
of every instance of the workload, runs the job lists once (each job of
each instance timed on its own, with its check after it, outside the timed
region) and prints one JSON object as its last stdout line.  ``--t0`` is
the parent's ``time.perf_counter()`` just before it started this process
(the clock is system-wide), so ``setup_s`` spans interpreter start-up, the
kfacets import and input building.  A host-speed probe
(``hostspeed.probe``) runs after set-up and after every job, outside the
timed regions; each job gets the mean of the probes on either side of it.
With ``--trace`` the calls into kfacets are wrapped (see ``tracer.py``) and
the spans are written to ``--spans``.  With ``--setup-only`` it stops after
set-up and the first probe, and reports only those.

    python3 perfbench/worker.py --record-digests

rewrites ``digests.json``: the SHA-256 of every job's canonical output for
every instance of the default seed, for both sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from hostspeed import probe  # noqa: E402


def import_kfacets():
    """Import kfacets from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kfacets" / "__init__.py").is_file():
        raise SystemExit(f"kfacets source not found under {src}")
    sys.path.insert(0, str(src))
    import kfacets
    import kfacets.cli  # noqa: F401  (binds every module the CLI uses)

    if Path(kfacets.__file__).resolve().parent != (src / "kfacets").resolve():
        raise SystemExit(f"imported kfacets from {kfacets.__file__}, not {src}")
    return kfacets


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def children_cpu() -> float:
    """User + sys CPU seconds of this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_repetition(workload: str, seed: int, size: str = "full",
                   trace: bool = False, t0: float | None = None,
                   digests: dict | None = None, spans_path: str | None = None,
                   setup_only: bool = False) -> dict:
    """Set up, run and check one repetition; returns the measurements.

    Timings and probes are keyed ``"<instance>/<job>"``; output digests are
    nested by instance, as in ``digests.json``.
    """
    import_kfacets()
    wl = jobs.WORKLOADS[workload]
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".perfbench_out"))
    tracer = None
    try:
        tasks = []
        for instance in range(wl.instances):
            inst_dir = workdir / str(instance)
            inst_dir.mkdir()
            tasks += [(instance, job, job.prepare(seed, instance, size, inst_dir))
                      for job in wl.jobs]
        setup_s = time.perf_counter() - t0 if t0 is not None else None
        setup_probe = probe()
        if setup_only:
            return {"setup_s": setup_s, "setup_probe_s": setup_probe}
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.instrument()
        expected = {}
        if seed == jobs.DEFAULT_SEED:
            expected = (digests if digests is not None else load_digests()) \
                .get(size, {}).get(workload, {})

        job_wall: dict[str, float] = {}
        job_cpu: dict[str, float] = {}
        job_probe: dict[str, float] = {}
        failures: list[str] = []
        outputs: dict[str, dict[str, str]] = {}
        before = setup_probe
        for instance, job, payload in tasks:
            key = f"{instance}/{job.name}"
            if tracer:
                tracer.active = True
            problems: list[str] = []
            k0 = children_cpu()
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                output = job.run(payload)
            except Exception:  # a job that raises counts as failed; the rest still run
                problems.append(f"raised\n{traceback.format_exc()}")
            w1, c1 = time.perf_counter(), time.process_time()
            k1 = children_cpu()
            if tracer:
                tracer.active = False
            after = probe()
            job_wall[key] = w1 - w0
            job_cpu[key] = c1 - c0 + k1 - k0
            job_probe[key] = (before + after) / 2
            before = after
            if not problems:
                got = outputs.setdefault(str(instance), {})
                try:
                    problems = job.check(payload, output)
                    got[job.name] = jobs.digest(job.canon(output))
                except Exception:  # a malformed output fails its check
                    problems = [f"check raised\n{traceback.format_exc()}"]
                want = expected.get(str(instance), {}).get(job.name)
                if want is not None and want != got.get(job.name):
                    problems.append("output digest differs from the recorded one")
            if problems:
                more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
                failures.append(f"{key}: " + "; ".join(problems[:3]) + more)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result = {
            "setup_s": setup_s,
            "setup_probe_s": setup_probe,
            "wall_s": sum(job_wall.values()),
            "cpu_s": sum(job_cpu.values()),
            "job_wall_s": job_wall,
            "job_cpu_s": job_cpu,
            "job_probe_s": job_probe,
            "peak_rss_mb": peak_kb / 1024,
            "attempted": len(tasks),
            "failed": len(failures),
            "failures": failures,
            "digests": outputs,
        }
        if tracer:
            from tracer import layer_metrics, span_records

            result["layers"] = layer_metrics(tracer.spans)
            if spans_path:
                Path(spans_path).write_text(json.dumps(
                    {"workload": workload, "seed": seed, "size": size,
                     "spans": span_records(tracer.spans)}))
        return result
    finally:
        if tracer:
            tracer.uninstrument()
        shutil.rmtree(workdir, ignore_errors=True)


def record_digests() -> None:
    table = {}
    for size in ("full", "tiny"):
        for name in jobs.WORKLOADS:
            res = run_repetition(name, jobs.DEFAULT_SEED, size, digests={})
            if res["failed"]:
                raise SystemExit(f"{size} {name} failed: {res['failures']}")
            table.setdefault(size, {})[name] = res["digests"]
            print(f"{size} {name}: {res['attempted']} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return 0
    result = run_repetition(args.workload, args.seed, args.size, args.trace,
                            args.t0, spans_path=args.spans, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.pop("KFL_WORKERS", None)
    sys.exit(main())
