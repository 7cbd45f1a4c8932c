"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in jobs.WORKLOADS.values()]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, kind):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(jobs.WORKLOADS[workload].jobs)
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_wrong_expected_digest_raises_fail_ratio():
    wl = jobs.WORKLOADS["lift-count"]
    wrong = {"tiny": {wl.name: {"0": {job.name: "0" * 64 for job in wl.jobs}}}}
    res = worker.run_repetition(wl.name, jobs.DEFAULT_SEED, "tiny", digests=wrong)
    assert res["attempted"] == wl.instances * len(wl.jobs)
    assert res["failed"] / res["attempted"] > 0
    right = worker.run_repetition(wl.name, jobs.DEFAULT_SEED, "tiny")
    assert right["failed"] == 0


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_traced_self_times_sum_to_wall(workload):
    res = worker.run_repetition(workload, 3, "tiny", trace=True)
    layers, wall = res["layers"], res["wall_s"]
    others = sum(layers[f"{m}.self_s"] for m in tracer.MODULES if m != "cli")
    remainder = wall - others
    assert remainder >= 0
    # what the layers leave over is the CLI's own time, up to harness noise
    assert remainder <= layers["cli.self_s"] + 0.02 * wall + 0.002


def test_exact_counters_repeat_at_a_fixed_seed():
    first = worker.run_repetition("reuse-sweep", 5, "tiny", trace=True)["layers"]
    second = worker.run_repetition("reuse-sweep", 5, "tiny", trace=True)["layers"]
    for name in tracer.EXACT_COUNTERS:
        assert first[name] == second[name], name
    assert first["facets.subsets"] > 0 and first["simplex.solves"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("lift-count", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
