#!/usr/bin/env python3
"""Write the ``--json`` output of the CLI on a fixed corpus to one directory.

The corpus is:

- ``smooth``, ``classify3d`` and ``pbw-check`` on every instance of
  ``three_dim_grid()`` over Q and F_101;
- ``diffusion-classify`` (type 1) and ``pbw-check`` (types 1 and 2) on every
  instance of every diffusion family, over Q and F_101;
- ``calculus --max-degree 5 --verify-integrability 1`` on the instances the
  catalog expects to be sufficiently smooth, over Q and F_101;
- ``smooth`` on every instance of ``three_dim_grid()``, and ``calculus
  --max-degree 5 --verify-integrability 1`` on the sufficiently smooth ones,
  over F_(2^31 - 1) (``WORD_P``): a prime of the size the benchmark draws;
- ``calculus --max-degree 7 --verify-integrability 2`` on the instances of
  ``three_dim_grid(PrimeField(7))`` the catalog expects to be sufficiently
  smooth: at degree 7 the binomials C(7, t) of the shifted twists vanish;
- ``calculus`` on wider presentations, whose integral-form tables have
  2^n - 2 index sets: ``--max-degree 2 --verify-integrability 1`` on
  quasi-commutative ones (x_i x_j = a_ij x_j x_i, distinct a_ij other than
  0 and +-1) with n in ``WIDE_N``, over Q and F_101, and ``--max-degree 1``
  on the commutative one with n = ``cli.MAX_CALCULUS_N``, over Q;
- ``calculus --verify-integrability 1`` at high degree on the inputs the
  README times: class 2b (beta = 3, b = 7) at ``--max-degree 18`` and the
  shifted plane x1 x2 - x2 x1 = x1 + x2 at ``--max-degree 30``, over Q; and
  two disconnected ones, the shifted plane over F_5 at ``--max-degree 30``
  (kernel dimension 28) and class 2b (beta = 3, b = 5) over F_7 at
  ``--max-degree 12`` (kernel dimension 7);
- ``smooth`` and ``calculus --max-degree 6`` on the shifted quasi-plane
  x1 x2 - 3 x2 x1 = 3 x1 + x2 + 2 over Q, whose twists both have a shifted
  diagonal (``SHIFTED_QUASI_PLANE``);
- ``verify-identities --seed 0`` and ``--seed 3``, and ``verify-identities
  --n-max 4 --samples 1`` (the ``identities`` benchmark job's shape) at the
  seeds in ``BENCH_SHAPE_SEEDS``;
- ``smooth`` (skew) or ``pbw-check`` (diffusion) on each of ``MALFORMED``,
  a fixed list of bad inputs: one per input error of each line kind, so that
  every change in the text of an ``error:`` line shows in the diff; an entry
  with flags runs ``calculus`` with them instead, one per bound on its input.

Each input is written as ``inputs/<name>.alg`` and each output as
``<name>.<command>.json``; a command that exits nonzero also leaves
``<name>.<command>.err`` with its exit status and stderr.  Two checkouts give
the same JSON when ``diff -r`` finds no difference between their directories:

    PYTHONPATH=src python scripts/json_corpus.py /tmp/corpus-new
    PYTHONPATH=../old/src python scripts/json_corpus.py /tmp/corpus-old
    diff -r /tmp/corpus-old /tmp/corpus-new

The tests compare every file it writes with the SHA-256 recorded in
``tests/data/json_corpus.sha256``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from fractions import Fraction
from itertools import combinations

from skewsmooth import cli, dsl
from skewsmooth.algebra import Presentation
from skewsmooth.catalog import (DIFFUSION_LABELS, diffusion_class_instances, three_dim_class,
                                three_dim_grid)
from skewsmooth.diffusion import DiffusionPresentation, DiffusionType
from skewsmooth.scalars import QQ, PrimeField
from skewsmooth.smoothness import Verdict

FIELDS = (("q", QQ), ("p101", PrimeField(101)))
WORD_P = PrimeField(2 ** 31 - 1)
DEGREE_P = PrimeField(7)

_SKEW = "kind: skew\nfield: Fp:7\nn: 3\n"
_DIFF1 = "kind: diffusion1\nfield: Fp:7\nn: 3\n"
_LONG = "1" * 5000
BENCH_SHAPE_SEEDS = (0, 3, 271828)
SHIFTED_QUASI_PLANE = Presentation.skew(QQ, 2, {(1, 2): (3, {1: 3, 2: 1}, 2)})
WIDE_N = (4, 6)
# (name, text) or (name, text, calculus flags): each is an input error
MALFORMED = (
    ("header-kind", "kind: lie\nn: 2\n"),
    ("header-field", "field: Fp:2\nn: 2\n"),
    ("header-count", "kind: skew\nn: two\n"),
    ("header-count-range", "kind: skew\nn: 21\n"),
    ("header-missing-n", "kind: skew\n"),
    ("skew-no-equals", _SKEW + "x1*x2 - 2*x2*x1\n"),
    ("skew-lhs", _SKEW + "x1*x2 + 2*x2*x1 = 0\n"),
    ("skew-pair-order", _SKEW + "x2*x1 - 2*x1*x2 = 0\n"),
    ("skew-pair-swap", _SKEW + "x1*x2 - 2*x3*x1 = 0\n"),
    ("skew-duplicate", _SKEW + "x1*x2 - 2*x2*x1 = 0\n  x1*x2 - 3*x2*x1 = 0\n"),
    ("skew-quad-zero-denominator", _SKEW + "x1*x2 - 1/0*x2*x1 = 0\n"),
    ("skew-quad-divisible", _SKEW + "  x1 * x2 -  -1/7 * x2*x1 = 0\n"),
    ("skew-quad-long", _SKEW + f"x1*x2 - {_LONG}*x2*x1 = 0\n"),
    ("skew-quad-zero", _SKEW + "x1*x2 - 0*x2*x1 = 0\n"),
    ("skew-rhs-empty", _SKEW + "x1*x2 - 2*x2*x1 =  # nothing\n"),
    ("skew-rhs-signs-only", _SKEW + "x1*x2 - 2*x2*x1 = + -\n"),
    ("skew-rhs-bad-term", _SKEW + "x1*x2 - 2*x2*x1 = x1 +  3 ? x 1\n"),
    ("skew-rhs-zero-denominator", _SKEW + "x1*x2 - 2*x2*x1 = x1 - 1/0*x2\n"),
    ("skew-rhs-divisible", _SKEW + "x1*x2 - 2*x2*x1 = x1 + 3/14\n"),
    ("skew-rhs-divisible-tabbed", _SKEW + "\tx1*x2 - 2*x2*x1 = x1\t+\t3/14\n"),
    ("skew-rhs-generator", _SKEW + "x1*x2 - 2*x2*x1 = x1 -  x5\n"),
    ("skew-rhs-long", _SKEW + f"x1*x2 - 2*x2*x1 = x1 - {_LONG}\n"),
    ("skew-rhs-dangling-sign", _SKEW + "x1*x2 - 2*x2*x1 = x1 +\n"),
    ("diffusion-bad-line", _DIFF1 + "lambda 1 = 2\n"),
    ("lambda-indices", _DIFF1 + "lambda 1 1 = 2\n"),
    ("lambda-duplicate", _DIFF1 + "lambda 1 2 = 2\nlambda 1 2 = 3\n"),
    ("lambda-zero-denominator", _DIFF1 + "lambda 1 2 = 1/0\n"),
    ("lambda-divisible", _DIFF1 + "  lambda 1 2 = 1/7\n"),
    ("lambda-long", _DIFF1 + f"lambda 2 1 = {_LONG}\n"),
    ("x-in-diffusion2", "kind: diffusion2\nn: 3\nx 1 = 3\n"),
    ("x-index", _DIFF1 + "x 4 = 1\n"),
    ("x-duplicate", _DIFF1 + "x 1 = 1\nx 1 = 2\n"),
    ("x-divisible", _DIFF1 + "x 1 = 3/14\n"),
    ("x-long", _DIFF1 + f"\tx 1 =\t{_LONG}\n"),
    ("calculus-integrability-negative", _SKEW,
     ("--max-degree", "3", "--verify-integrability", "-3")),
    ("calculus-integrability-oversized", _SKEW,
     ("--max-degree", "3", "--verify-integrability", str(cli.MAX_INTEGRABILITY_SAMPLES + 1))),
    ("calculus-degree-zero", _SKEW, ("--max-degree", "0")),
    ("calculus-degree-oversized", _SKEW, ("--max-degree", str(cli.MAX_CALCULUS_DEGREE + 1))),
    ("calculus-monomials-oversized", _SKEW, ("--max-degree", "21")),
    ("calculus-generators-oversized", f"kind: skew\nn: {cli.MAX_CALCULUS_N + 1}\n",
     ("--max-degree", "1")),
)


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


def _quasi_commutative(field, n: int) -> Presentation:
    """a_ij = +-(t + 3)/2 for the t-th pair i < j, signs alternating: distinct,
    never 0 or +-1, and still distinct mod 101 for n <= 6."""
    pairs = combinations(range(1, n + 1), 2)
    return Presentation.skew(field, n, {pair: ((-1) ** t * Fraction(t + 3, 2), {}, 0)
                                        for t, pair in enumerate(pairs)})


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

    for idx, entry in enumerate(three_dim_grid(WORD_P)):
        name = f"skew-{idx:02d}-{entry.label}-p{WORD_P.p}"
        pres = entry.presentation
        path = _write_input(outdir, dsl.AlgebraFile(name, "skew", WORD_P, pres.n, pres))
        commands = [["smooth", path]]
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

    wide = [(f"quasi-n{n}-{tag}", _quasi_commutative(field, n), ("2", "1"))
            for tag, field in FIELDS for n in WIDE_N]
    wide.append((f"commutative-n{cli.MAX_CALCULUS_N}-q",
                 Presentation.commutative(QQ, cli.MAX_CALCULUS_N), ("1", "0")))
    wide.append(("class-2b-beta3-b7-q", three_dim_class("2b", beta=3, b=7), ("18", "1")))
    for tag, field in (("q", QQ), ("p5", PrimeField(5))):
        wide.append((f"shifted-plane-{tag}",
                     Presentation.skew(field, 2, {(1, 2): (1, {1: 1, 2: 1}, 0)}), ("30", "1")))
    wide.append(("class-2b-beta3-b5-p7", three_dim_class("2b", DEGREE_P, beta=3, b=5),
                 ("12", "1")))
    for name, pres, (degree, samples) in wide:
        path = _write_input(outdir, dsl.AlgebraFile(name, "skew", pres.field, pres.n, pres))
        _run(outdir, name, ["calculus", path, "--max-degree", degree,
                            "--verify-integrability", samples])
        count += 1

    name = "shifted-quasi-plane-q"
    path = _write_input(outdir, dsl.AlgebraFile(name, "skew", QQ, 2, SHIFTED_QUASI_PLANE))
    for argv in (["smooth", path], ["calculus", path, "--max-degree", "6"]):
        _run(outdir, name, argv)
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
    for seed in BENCH_SHAPE_SEEDS:
        _run(outdir, f"bench-shape-seed{seed}",
             ["verify-identities", "--n-max", "4", "--samples", "1", "--seed", str(seed)])
        count += 1

    for name, text, *flags in MALFORMED:
        path = os.path.join(outdir, "inputs", f"malformed-{name}.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if flags:
            argv = ["calculus", path, *flags[0]]
        else:
            argv = ["smooth" if "diffusion" not in text else "pbw-check", path]
        _run(outdir, f"malformed-{name}", argv)
        count += 1

    print(f"{count} outputs in {outdir} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
