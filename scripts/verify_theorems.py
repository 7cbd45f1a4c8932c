#!/usr/bin/env python3
"""Run every theorem verifier over a seed grid and print a summary table.

Usage: python scripts/verify_theorems.py [--seeds 5] [--json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kfacets.cli import run_verifier  # noqa: E402

GRID = [
    ("circles", {"n": 7}),
    ("circles", {"n": 11}),
    ("conics", {"n": 8}),
    ("conics", {"n": 10}),
    ("homogeneous", {"n": 8, "m": 2}),
    ("homogeneous", {"n": 8, "m": 4}),
    ("veronese-neighborly", {"n": 8, "m": 2}),
    ("veronese-neighborly", {"n": 8, "m": 4}),
    ("embedding", {"n": 7, "k": 2, "d": 2}),
    ("projection", {"n": 7, "d": 3}),
    ("projection", {"n": 12, "d": 4}),
    ("projection", {"n": 12, "d": 5}),
    ("radon", {"d": 3}),
    ("radon", {"d": 8}),
    ("weakly", {"k": 2}),
    ("weakly", {"k": 4}),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="emit one report per line")
    args = ap.parse_args()

    failures = 0
    for theorem, params in GRID:
        for seed in range(args.seeds):
            t0 = time.monotonic()
            report = run_verifier(theorem, seed=seed, **params)
            dt = time.monotonic() - t0
            if args.json:
                print(json.dumps(report, sort_keys=True))
            else:
                tag = "ok " if report["pass"] else "FAIL"
                pstr = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
                print(f"{tag} {theorem:<21} seed={seed} {pstr:<12} ({dt:.2f}s)")
            failures += 0 if report["pass"] else 1
    print(f"\n{len(GRID) * args.seeds} runs, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
