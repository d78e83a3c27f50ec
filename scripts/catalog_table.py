#!/usr/bin/env python3
"""Reproduce the three-generator verdict table.

Runs the decision procedure over every representative catalog instance and
prints one row per instance: class label, parameters, verdict, and whether it
matches the expected partition.
"""

from __future__ import annotations

import argparse
import sys
import time

from skewsmooth.catalog import three_dim_grid
from skewsmooth.smoothness import decide


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    return table()


def table() -> int:
    start = time.perf_counter()
    rows = [(entry, decide(entry.presentation)) for entry in three_dim_grid()]
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
