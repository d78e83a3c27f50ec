#!/usr/bin/env python3
"""Reproduce the three-generator verdict table.

Runs the decision procedure over every representative catalog instance and
prints one row per instance: class label, parameters, verdict, and whether it
matches the expected partition.  A ``--gkdim`` outside 0..3 ends in one
``error: ...`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
import time

from skewsmooth.catalog import three_dim_grid
from skewsmooth.errors import SkewSmoothError
from skewsmooth.smoothness import decide


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gkdim", type=int, default=3)
    args = parser.parse_args()
    try:
        return table(args.gkdim)
    except SkewSmoothError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def table(gkdim: int) -> int:
    start = time.perf_counter()
    rows = [(entry, decide(entry.presentation, gkdim)) for entry in three_dim_grid()]
    mismatches = 0
    print(f"{'class':<6} {'parameters':<42} {'verdict':<20} expected")
    for entry, verdict in rows:
        ok = verdict.verdict is entry.expected
        mismatches += not ok
        params = ", ".join(f"{k}={v}" for k, v in entry.params.items()) or "-"
        flag = "" if ok else "   <-- MISMATCH"
        print(f"{entry.label:<6} {params:<42} {verdict.verdict.value:<20} "
              f"{entry.expected.value}{flag}")
    print(f"\n{mismatches} mismatches, {time.perf_counter() - start:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
