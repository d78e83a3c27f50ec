#!/usr/bin/env python3
"""Per-stage CPU time of the ``identities`` job shape.

Runs ``verify-identities --n-max 4 --samples 1`` through ``cli.main`` for 16
consecutive seeds from 0 and prints the in-process CPU milliseconds per job
of its three stages (the ladder check, the two joint commutation checks, the
four determinant pairs) and of the whole CLI call, each the best of
``--rounds`` rounds.  The stages are the ``diffusion`` calls the command
itself makes, timed inside it.  With ``--against PATH`` it times the ``src``
of a second checkout too, in five alternating subprocesses per side, and
prints both columns, the other checkout first:

    PYTHONPATH=src python scripts/stage_times.py --against ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED, JOBS = 0, 16
PROCESSES = 5       # with --against: subprocesses per checkout, alternating
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


def _child(src: pathlib.Path, rounds: int) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--rounds", str(rounds), "--json"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)["ms/job"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--against", type=pathlib.Path, default=None,
                        help="a second checkout whose src to time as well")
    parser.add_argument("--json", action="store_true",
                        help="print each column's per-row list as JSON")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        sys.stderr.write("error: --rounds must be at least 1\n")
        return 1
    try:
        if args.against is None:
            columns = {"ms/job": time_stages(args.rounds)}
        else:
            sides = {"against": args.against.resolve() / "src", "this": ROOT / "src"}
            columns = {name: [float("inf")] * len(ROWS) for name in sides}
            for _ in range(PROCESSES):
                for name, src in sides.items():
                    columns[name] = list(map(min, columns[name], _child(src, args.rounds)))
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.json:
        sys.stdout.write(json.dumps(columns) + "\n")
        return 0
    width = max(map(len, ROWS))
    sys.stdout.write(f"{'stage':<{width}}" + "".join(f"  {c:>10}" for c in columns) + "\n")
    for r, row in enumerate(ROWS):
        sys.stdout.write(f"{row:<{width}}"
                         + "".join(f"  {col[r]:>10.3f}" for col in columns.values()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
