#!/usr/bin/env python3
"""Long-form identity sweeps.

Pushes the combinatorial and commutation verifications past the defaults:
ladder recurrences to a configurable height, both power-commutation identities
for both presentation types, and the determinant identities, with timings.
A count outside its bounds (one that would check nothing, or run unbounded)
ends in one ``error: ...`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
import time

from skewsmooth.cli import MAX_IDENTITY_N, MAX_IDENTITY_SAMPLES, check_count
from skewsmooth.diffusion import (DiffusionType, verify_commutation,
                                  verify_determinant_identities, verify_pq_recurrences)
from skewsmooth.errors import SkewSmoothError

# The ladder check computes N(N-1) integer coefficients once per call and
# then costs one test per draw, so its time grows about as N^2: N = 150 at
# 50 samples takes 0.03 s in an 18 MB process (N = 200: 0.07 s, 20 MB; at
# 1 sample N = 150 takes 0.02 s) on a 2-vCPU Intel Xeon VM, Python 3.11.7.
MAX_LADDER = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder-max", type=int, default=40)
    parser.add_argument("--power-max", type=int, default=8)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        check_count("--ladder-max", args.ladder_max, 2, MAX_LADDER)
        check_count("--power-max", args.power_max, 1, MAX_IDENTITY_N)
        check_count("--samples", args.samples, 1, MAX_IDENTITY_SAMPLES)
        sweep(args)
    except SkewSmoothError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def sweep(args) -> None:
    t = time.perf_counter()
    pq = verify_pq_recurrences(args.ladder_max, args.samples, args.seed)
    print(f"ladder recurrences n <= {args.ladder_max}: "
          f"{'PASS' if pq.all_pass else 'FAIL'} "
          f"({pq.checked} instances, {time.perf_counter() - t:.2f}s)")

    # one joint call per type checks both laws; its time is on both lines
    runs = []
    for dtype in (DiffusionType.TYPE1, DiffusionType.TYPE2):
        t = time.perf_counter()
        runs.append((dtype, verify_commutation(args.power_max, args.samples, args.seed, dtype),
                     time.perf_counter() - t))
    for dtype, (rep, _), seconds in runs:
        print(f"right commutation {dtype.value} n <= {args.power_max}: {rep.status} "
              f"({seconds:.2f}s)")
    for dtype, (_, rep), seconds in runs:
        line = f"left commutation {dtype.value} n <= {args.power_max}: {rep.status}"
        if rep.counterexample:
            line += (f" (minimal n = {rep.minimal_failing_n}, "
                     f"residual {rep.counterexample['residual']})")
        print(line + f" ({seconds:.2f}s)")

    t = time.perf_counter()
    dets = verify_determinant_identities(args.samples, args.seed)
    print(f"determinant identities: {'PASS' if dets.all_pass else 'FAIL'} "
          f"({time.perf_counter() - t:.2f}s)")


if __name__ == "__main__":
    sys.exit(main())
