#!/usr/bin/env python3
"""Same-process A/B timing of two source trees on one benchmark workload.

Copies the ``skewsmooth`` package of each tree into a temporary directory
under its own name (``skewsmooth_old``, ``skewsmooth_new``; the package
imports itself only through relative imports), builds the workload's jobs
for both with ``bench/inputs.generate`` and ``bench/jobs.build_jobs``, and
runs them interleaved in one process for ``--rounds`` rounds, alternating
which side runs a job first.  Each job keeps its best CPU time
(``time.thread_time``) per side.  Prints the mean ratio new/old of those
best times over the jobs and whether every output of the two sides matched;
exits 1 when some output differs:

    python scripts/ab_jobs.py ../parent/src src --workload rewrite --rounds 40

One process and interleaving cancel most of the drift between separate
benchmark runs on a shared host, but the figures are not the benchmark's:
no calibration, no set-up, no memory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SIDES = ("old", "new")


def load_side(src: str, side: str, tmp: str):
    """The modules and fields constructors of SRC's package, imported as
    ``skewsmooth_<side>`` from a copy under TMP."""
    package = os.path.join(src, "skewsmooth")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no skewsmooth package under {src}")
    name = f"skewsmooth_{side}"
    shutil.copytree(package, os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    mod = {sub: importlib.import_module(f"{name}.{sub}")
           for sub in ("algebra", "cli", "diffusion", "scalars")}
    lib = {"cli": mod["cli"], "Presentation": mod["algebra"].Presentation,
           "DiffusionPresentation": mod["diffusion"].DiffusionPresentation,
           "DiffusionType": mod["diffusion"].DiffusionType,
           "encode_presentation": mod["diffusion"].encode_presentation}
    return lib, mod["scalars"]


def fields_for(manifest: dict, scalars) -> dict:
    """The coefficient fields the library jobs name, built from one side."""
    fields = {"Q": scalars.QQ}
    for spec in manifest["jobs"]:
        name = spec.get("field", "Q")
        if name.startswith("Fp:"):
            fields[name] = scalars.PrimeField(int(name[3:]))
    return fields


def run(job):
    """The job's exported output and its CPU seconds."""
    start = time.thread_time()
    try:
        output = ("ok", job())
    except Exception as exc:  # compared across sides like any output
        output = ("error", type(exc).__name__, str(exc))
    spent = time.thread_time() - start
    return job.export(output), spent


def compare(old_src: str, new_src: str, workload: str, seed: int, rounds: int) -> dict:
    """Best CPU seconds per job and side, and the indices of the jobs whose
    outputs differ between the sides in some round."""
    sys.path.insert(0, str(BENCH))
    from inputs import generate
    from jobs import build_jobs

    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate(workload, seed, os.path.join(tmp, "inputs"))
        sys.path.insert(0, tmp)
        jobs = {}
        for side, src in zip(SIDES, (old_src, new_src)):
            lib, scalars = load_side(src, side, tmp)
            jobs[side] = build_jobs(manifest, lib, fields_for(manifest, scalars))
        count = len(jobs["old"])
        best = {side: [float("inf")] * count for side in SIDES}
        differ = set()
        for r in range(rounds):
            for j in range(count):
                order = SIDES if (r + j) % 2 == 0 else SIDES[::-1]
                outputs = {}
                for side in order:
                    outputs[side], spent = run(jobs[side][j])
                    best[side][j] = min(best[side][j], spent)
                if outputs["old"] != outputs["new"]:
                    differ.add(j)
    return {"jobs": count, "best": best, "differ": sorted(differ)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the src directory of the reference tree")
    parser.add_argument("new_src", help="the src directory of the tree to compare")
    parser.add_argument("--workload", required=True,
                        choices=("screen", "calculus", "rewrite", "identities"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, not {args.rounds}")
    got = compare(args.old_src, args.new_src, args.workload, args.seed, args.rounds)
    old, new = got["best"]["old"], got["best"]["new"]
    ratio = sum(b / a for a, b in zip(old, new)) / got["jobs"]
    print(f"{args.workload} seed {args.seed}: {got['jobs']} jobs x {args.rounds} rounds")
    print(f"best CPU ms per round: old {sum(old) * 1000:.2f}, new {sum(new) * 1000:.2f}")
    print(f"mean new/old ratio per job: {ratio:.4f}")
    if got["differ"]:
        print(f"outputs differ on jobs {got['differ']}")
        return 1
    print(f"outputs: all {got['jobs']} jobs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
