#!/usr/bin/env python3
"""Tabulate measured k-facet profiles of lifted random sets next to the
closed-form predictions.

Usage: python scripts/profile_tables.py [--seed 0] [--max-n 11]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kfacets.facets import k_facet_profile  # noqa: E402
from kfacets.formulas import circle_count, conic_count, homogeneous_count  # noqa: E402
from kfacets.genpos import map_generic_set  # noqa: E402
from kfacets.liftmaps import circle_map, homogeneous_veronese, veronese  # noqa: E402

FAMILIES = [
    ("circle", circle_map(), lambda n, k: circle_count(n, k),
     lambda n: n >= 5 and n % 2 == 1),
    ("conic", veronese(2, 2), lambda n, k: conic_count(n, k),
     lambda n: n >= 7),
    ("hom m=2", homogeneous_veronese(2, 2), lambda n, k: homogeneous_count(n, 2, k),
     lambda n: n >= 5),
    ("hom m=4", homogeneous_veronese(2, 4), lambda n, k: homogeneous_count(n, 4, k),
     lambda n: 7 <= n <= 10),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-n", type=int, default=11)
    args = ap.parse_args()

    mismatches = 0
    for name, mmap, formula, admits in FAMILIES:
        print(f"\n== {name} lift ==")
        for n in range(5, args.max_n + 1):
            if not admits(n):
                continue
            src = map_generic_set(n, mmap, seed=args.seed)
            measured = k_facet_profile(mmap.apply(src)).e
            predicted = tuple(formula(n, k) for k in range(len(measured)))
            mark = "" if measured == predicted else "   <-- MISMATCH"
            mismatches += measured != predicted
            print(f"n={n:<3} measured  {list(measured)}{mark}")
            print(f"      formula   {list(predicted)}")
    print(f"\n{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
