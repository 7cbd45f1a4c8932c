"""The benchmark's workloads: fixed job lists, their inputs and output checks.

A workload is a list of jobs and a fixed number of instances.  Every job
seed is derived from the workload seed and an instance number, so one
``--seed`` fixes every input: instance 0 is the job list at that seed, and
instance r > 0 draws fresh inputs of the same sizes.  A run measures every
instance of its seed, so its figure is a total over a fixed input set
rather than the time of one unusually hard or easy input.  Each job has
three parts:

* ``prepare(seed, instance, size, workdir)`` builds the job's input during set-up
  (a CLI argument list, or a point set for API jobs);
* ``run(payload)`` is the timed call into kfacets, through ``cli.main`` or
  the public API;
* ``check(payload, output)`` returns a list of problems, empty when the
  output is right.  It runs outside the timed region.

``canon(output)`` gives the canonical text whose SHA-256 is compared with
the digests recorded in ``digests.json`` for every instance of the default
seed.

Two sizes exist: ``full`` (the measured sizes) and ``tiny`` (the same jobs at
small sizes, used by the benchmark's self-tests).  The full sizes keep one
instance's job list near a second, so that a run sums many instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 0


def job_seed(seed: int, instance: int, job: str) -> int:
    """Seed of one job, derived from the workload seed, instance and job name."""
    key = f"{seed}:{job}" if instance == 0 else f"{seed}:{instance}:{job}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Job:
    name: str
    prepare: Callable[[int, int, str, Path], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    canon: Callable[[Any], str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: int
    jobs: tuple[Job, ...]


# --- CLI jobs ----------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``kfacets.cli.main`` in-process, with its output captured."""
    from kfacets import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def verify_job(theorem: str, full: dict, tiny: dict) -> Job:
    name = f"verify-{theorem}-" + "-".join(f"{k}{v}" for k, v in full.items())

    def prepare(seed: int, instance: int, size: str, workdir: Path) -> list[str]:
        params = full if size == "full" else tiny
        argv = ["verify", theorem, "--seed", str(job_seed(seed, instance, name))]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        return argv

    def check(argv: list[str], res: CliResult) -> list[str]:
        if res.code != 0:
            return [f"exit {res.code}: {res.stderr.strip()}"]
        report = json.loads(res.stdout)
        if report.get("pass") is not True:
            return [f"report does not pass: {res.stdout.strip()}"]
        return []

    return Job(name, prepare, run_cli, check, lambda res: res.stdout)


def collinear_count_job() -> Job:
    """``kfacets count`` on a collinear planar set: must exit 2."""
    name = "count-collinear"

    def prepare(seed: int, instance: int, size: str, workdir: Path) -> list[str]:
        rng = random.Random(job_seed(seed, instance, name))
        n = 12 if size == "full" else 5
        slope, icept = rng.randint(1, 5), rng.randint(-9, 9)
        xs = rng.sample(range(-50, 51), n)
        path = workdir / "collinear.json"
        path.write_text(json.dumps(
            {"dim": 2, "points": [[str(x), str(slope * x + icept)] for x in xs]}))
        return ["count", "--in", str(path), "--mode", "facets"]

    def check(argv: list[str], res: CliResult) -> list[str]:
        if res.code != 2:
            return [f"collinear count exited {res.code}, expected 2"]
        if "general linear position" not in res.stderr:
            return [f"collinear count gave no degeneracy error: {res.stderr.strip()}"]
        return []

    return Job(name, prepare, run_cli, check,
               lambda res: json.dumps([res.code, res.stdout, res.stderr]))


# --- API jobs ----------------------------------------------------------------

def generic_set(seed: int, instance: int, size: str):
    from kfacets import genpos

    n = 10 if size == "full" else 7
    return genpos.random_point_set(n, 3, job_seed(seed, instance, "generic"))


def grid2_set(seed: int, instance: int, size: str):
    """14 (tiny: 8) distinct points of the 4x4 grid: many collinear triples."""
    from kfacets.geometry import point_set

    rng = random.Random(job_seed(seed, instance, "grid2"))
    grid = [(x, y) for x in range(4) for y in range(4)]
    return point_set(rng.sample(grid, 14 if size == "full" else 8))


def grid3_set(seed: int, instance: int, size: str):
    """12 (tiny: 7) distinct points of the 3x3x3 grid: many coplanar quadruples."""
    from kfacets.geometry import point_set

    rng = random.Random(job_seed(seed, instance, "grid3"))
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    return point_set(rng.sample(grid, 12 if size == "full" else 7))


def repeated_set(seed: int, instance: int, size: str):
    """9 (tiny: 5) planar points in a small box, 3 (tiny: 2) of them repeated."""
    from kfacets.geometry import point_set

    rng = random.Random(job_seed(seed, instance, "repeated"))
    base_n, extra = (9, 3) if size == "full" else (5, 2)
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    base = rng.sample(box, base_n)
    return point_set(base + [base[i] for i in rng.sample(range(base_n), extra)])


def k_set_counts_job(label: str, build) -> Job:
    name = f"k_set_counts-{label}"

    def run(ps):
        from kfacets import facets

        return facets.k_set_counts(ps)

    def check(ps, counts) -> list[str]:
        counts = list(counts)
        if len(counts) != ps.n - 1:
            return [f"{len(counts)} counts for n={ps.n}"]
        if counts != counts[::-1]:
            return [f"a_k != a_(n-k): {counts}"]
        if min(counts) < 1:
            return [f"some k has no k-set: {counts}"]
        return []

    return Job(name, lambda seed, instance, size, workdir: build(seed, instance, size), run,
               check, lambda counts: json.dumps(list(counts)))


def weak_pairs_job(label: str, build) -> Job:
    """Weak face certificate for every pair of points of a degenerate set."""
    name = f"weak_pairs-{label}"

    def run(ps):
        from kfacets import facelab

        return [facelab.face_certificate(ps, pair, strict=False)
                for pair in combinations(range(ps.n), 2)]

    def check(ps, certs) -> list[str]:
        problems = []
        for pair, cert in zip(combinations(range(ps.n), 2), certs):
            if cert is not None and (cert.strict or not cert.validate(ps, pair)):
                problems.append(f"certificate for {pair} fails substitution")
        if not any(certs):
            problems.append("no pair is a weak face")
        return problems

    def canon(certs) -> str:
        return json.dumps([
            None if c is None else [[str(v) for v in c.hyperplane.normal],
                                    str(c.hyperplane.offset)]
            for c in certs])

    return Job(name, lambda seed, instance, size, workdir: build(seed, instance, size), run,
               check, canon)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "lift-count",
        "GLP checks at generation, then one large k-facet sweep per lifted "
        "set; no LP at all",
        10,
        (
            verify_job("circles", {"n": 17}, {"n": 7}),
            verify_job("conics", {"n": 14}, {"n": 8}),
            verify_job("homogeneous", {"n": 12, "m": 4}, {"n": 6, "m": 4}),
        ),
    ),
    Workload(
        "face-lp",
        "strict and weak face LPs, separation LPs and constructive "
        "certificates; exact simplex is nearly all the time, with no sweep",
        16,
        (
            verify_job("veronese-neighborly", {"n": 6, "m": 4}, {"n": 5, "m": 4}),
            verify_job("embedding", {"k": 3, "d": 3, "n": 5}, {"k": 2, "d": 2, "n": 5}),
            verify_job("veronese-neighborly", {"n": 6, "m": 2}, {"n": 6, "m": 2}),
            verify_job("weakly", {"k": 3}, {"k": 2}),
            verify_job("radon", {"d": 8}, {"d": 3}),
        ),
    ),
    Workload(
        "reuse-sweep",
        "one small generic set swept again and again: per-vertex projection "
        "checks and k-set counts whose LPs never reject",
        14,
        (
            verify_job("projection", {"n": 9, "d": 4}, {"n": 6, "d": 3}),
            k_set_counts_job("generic", generic_set),
        ),
    ),
    Workload(
        "degenerate",
        "k-sets and weak faces of grid and repeated-point sets, where the LP "
        "rejects about half the candidates; a collinear count must exit 2",
        6,
        (
            k_set_counts_job("grid2", grid2_set),
            k_set_counts_job("grid3", grid3_set),
            k_set_counts_job("repeated", repeated_set),
            weak_pairs_job("grid2", grid2_set),
            weak_pairs_job("grid3", grid3_set),
            weak_pairs_job("repeated", repeated_set),
            collinear_count_job(),
        ),
    ),
)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
