#!/usr/bin/env python3
"""Per-stage CPU time of the ``identities`` job shape.

Runs ``verify-identities --n-max 4 --samples 1`` through ``cli.main`` for 16
consecutive seeds from 0 and prints the in-process CPU milliseconds per job
of its three stages (the ladder check, the two joint commutation checks, the
four determinant pairs) and of the whole CLI call, each the best of
``--rounds`` rounds.  The stages are the ``diffusion`` calls the command
itself makes, timed inside it.  To compare two trees, time each job of the
``identities`` workload on both with ``scripts/ab_jobs.py``.

    PYTHONPATH=src python scripts/stage_times.py --rounds 30
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time

SEED, JOBS = 0, 16
ARGV = ["verify-identities", "--n-max", "4", "--samples", "1"]
# stage row -> the diffusion function that verify-identities calls for it
STAGES = {"ladder check": "verify_pq_recurrences",
          "commutation checks": "verify_commutation",
          "determinants": "verify_determinant_identities"}
ROWS = (*STAGES, "whole job")


def time_stages(rounds: int) -> list:
    """Best CPU ms per job of each row over ``rounds`` rounds of the jobs.

    Each stage function is wrapped on the ``diffusion`` module for the run,
    so the rows follow what the command calls; a stage it does not call is
    an error rather than a row of zeros.
    """
    from skewsmooth import cli, diffusion
    spent = dict.fromkeys(ROWS, 0.0)
    called = set()

    def timed(row, fn):
        def wrapper(*args, **kwargs):
            called.add(row)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[row] += time.process_time() - start
        return wrapper

    originals = {name: getattr(diffusion, name) for name in STAGES.values()}
    best = [float("inf")] * len(ROWS)
    try:
        for row, name in STAGES.items():
            setattr(diffusion, name, timed(row, originals[name]))
        for _ in range(rounds):
            spent.update(dict.fromkeys(ROWS, 0.0))
            for seed in range(SEED, SEED + JOBS):
                start = time.process_time()
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(ARGV + ["--seed", str(seed)])
                spent["whole job"] += time.process_time() - start
                if status != 0:
                    raise RuntimeError(f"verify-identities --seed {seed} exited {status}")
            missing = [row for row in STAGES if row not in called]
            if missing:
                raise RuntimeError(f"verify-identities does not call {', '.join(missing)}")
            best = [min(b, spent[row] * 1000 / JOBS) for b, row in zip(best, ROWS)]
    finally:
        for name, fn in originals.items():
            setattr(diffusion, name, fn)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        sys.stderr.write("error: --rounds must be at least 1\n")
        return 1
    try:
        best = time_stages(args.rounds)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    width = max(map(len, ROWS))
    sys.stdout.write(f"{'stage':<{width}}  {'ms/job':>10}\n")
    for row, ms in zip(ROWS, best):
        sys.stdout.write(f"{row:<{width}}  {ms:>10.3f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
