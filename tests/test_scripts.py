"""Smoke tests: the experiment scripts run to completion at small sizes, and
the benchmark's jobs still give the outputs recorded for them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("argv", [
    ["verify_theorems.py", "--seeds", "1"],
])
def test_script_exits_0(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _worker_matches_digests(workload: str, size: str, *flags: str) -> dict:
    """The worker's result at seed 0, where it checks each job's output
    against perfbench/digests.json, after asserting no job failed and every
    digest is the recorded one."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--size", size, "--seed", "0", *flags],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[size][workload]
    assert result["digests"] == recorded
    return result


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_match_their_digests(workload, size):
    _worker_matches_digests(workload, size)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_outputs_match_their_digests(workload):
    # the tracer wraps kfacets functions and methods by name and unpacks some
    # results, so a renamed or reshaped one fails here and not only in a traced run
    assert _worker_matches_digests(workload, "tiny", "--trace")["layers"]
