#!/usr/bin/env python3
"""Write the ``--json`` output of the CLI on a fixed corpus to one directory.

The corpus is:

- ``smooth``, ``classify3d`` and ``pbw-check`` on every instance of
  ``three_dim_grid()`` over Q and F_101;
- ``diffusion-classify`` (type 1) and ``pbw-check`` (types 1 and 2) on every
  instance of every diffusion family, over Q and F_101;
- ``calculus --max-degree 5 --verify-integrability 1`` on the instances the
  catalog expects to be sufficiently smooth, over Q and F_101;
- ``calculus --max-degree 7 --verify-integrability 2`` on the instances of
  ``three_dim_grid(PrimeField(7))`` the catalog expects to be sufficiently
  smooth: at degree 7 the binomials C(7, t) of the shifted twists vanish;
- ``verify-identities --seed 0`` and ``--seed 3``.

Each input is written as ``inputs/<name>.alg`` and each output as
``<name>.<command>.json``; a command that exits nonzero also leaves
``<name>.<command>.err`` with its exit status and stderr.  Two checkouts give
the same JSON when ``diff -r`` finds no difference between their directories:

    PYTHONPATH=src python scripts/json_corpus.py /tmp/corpus-new
    PYTHONPATH=../old/src python scripts/json_corpus.py /tmp/corpus-old
    diff -r /tmp/corpus-old /tmp/corpus-new
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time

from skewsmooth import cli, dsl
from skewsmooth.catalog import DIFFUSION_LABELS, diffusion_class_instances, three_dim_grid
from skewsmooth.diffusion import DiffusionPresentation, DiffusionType
from skewsmooth.scalars import QQ, PrimeField
from skewsmooth.smoothness import Verdict

FIELDS = (("q", QQ), ("p101", PrimeField(101)))
DEGREE_P = PrimeField(7)


def _run(outdir: str, name: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--json"])
    stem = os.path.join(outdir, f"{name}.{argv[0]}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    if rc:
        with open(stem + ".err", "w", encoding="utf-8") as fh:
            fh.write(f"exit {rc}\n{err.getvalue()}")


def _write_input(outdir: str, alg: dsl.AlgebraFile) -> str:
    path = os.path.join(outdir, "inputs", f"{alg.name}.alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dsl.emit(alg))
    return path


def _diffusion_over(field, dp: DiffusionPresentation, dtype) -> DiffusionPresentation:
    """The Q instance's coefficients read in ``field``, as a ``dtype`` presentation."""
    lambdas = {k: field.coerce(v) for k, v in dp.lambdas.items()}
    xs = tuple(field.coerce(v) for v in dp.x) if dtype is DiffusionType.TYPE1 else ()
    return DiffusionPresentation(dp.n, dtype, lambdas, xs, field)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Write the CLI's --json output on a fixed corpus to OUTDIR.")
    parser.add_argument("outdir")
    args = parser.parse_args()
    outdir = args.outdir
    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    start = time.perf_counter()
    count = 0

    for tag, field in FIELDS:
        for idx, entry in enumerate(three_dim_grid(field)):
            name = f"skew-{idx:02d}-{entry.label}-{tag}"
            pres = entry.presentation
            path = _write_input(outdir, dsl.AlgebraFile(name, "skew", field, pres.n, pres))
            commands = [["smooth", path], ["classify3d", path], ["pbw-check", path]]
            if entry.expected is Verdict.SMOOTH_SUFFICIENT:
                commands.append(["calculus", path, "--max-degree", "5",
                                 "--verify-integrability", "1"])
            for argv in commands:
                _run(outdir, name, argv)
                count += 1

    for idx, entry in enumerate(three_dim_grid(DEGREE_P)):
        if entry.expected is not Verdict.SMOOTH_SUFFICIENT:
            continue
        name = f"skew-{idx:02d}-{entry.label}-p7"
        pres = entry.presentation
        path = _write_input(outdir, dsl.AlgebraFile(name, "skew", DEGREE_P, pres.n, pres))
        _run(outdir, name, ["calculus", path, "--max-degree", "7",
                            "--verify-integrability", "2"])
        count += 1

    for tag, field in FIELDS:
        for label in DIFFUSION_LABELS:
            for idx, dp in enumerate(diffusion_class_instances(label)):
                for kind, dtype in (("diffusion1", DiffusionType.TYPE1),
                                    ("diffusion2", DiffusionType.TYPE2)):
                    name = f"{kind}-{label}-{idx}-{tag}"
                    payload = _diffusion_over(field, dp, dtype)
                    path = _write_input(outdir, dsl.AlgebraFile(name, kind, field, 3, payload))
                    commands = [["pbw-check", path]]
                    if dtype is DiffusionType.TYPE1:
                        commands.append(["diffusion-classify", path])
                    for argv in commands:
                        _run(outdir, name, argv)
                        count += 1

    for seed in (0, 3):
        _run(outdir, f"seed{seed}", ["verify-identities", "--seed", str(seed)])
        count += 1

    print(f"{count} outputs in {outdir} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
