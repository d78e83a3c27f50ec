#!/usr/bin/env python3
"""Write the ``--json`` output of the CLI on a fixed corpus to one directory.

``_rows`` lists the corpus, with the reason for each row.  Each input is
written as ``inputs/<name>.alg`` and each output as ``<name>.<command>.json``;
a command that exits nonzero also leaves ``<name>.<command>.err`` with its
exit status and stderr.  Two checkouts give the same JSON when ``diff -r``
finds no difference between their directories.  The tests compare every file
with the SHA-256 recorded in ``tests/data/json_corpus.sha256``; a change that
alters an output on purpose says why and regenerates the manifest with

    PYTHONPATH=src python scripts/json_corpus.py OUT
    (cd OUT && find . -type f -printf '%P\\n' | LC_ALL=C sort | xargs sha256sum) \\
        > tests/data/json_corpus.sha256
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
# (name, text) or (name, text, calculus flags): one input error of each line kind, so that
# every change in the text of an ``error:`` line shows; run by ``smooth`` (skew) or
# ``pbw-check`` (diffusion), or with flags by ``calculus``, one per bound on its input
MALFORMED = (
    ("header-kind", "kind: lie\nn: 2\n"),
    ("header-field", "field: Fp:2\nn: 2\n"),
    ("header-count", "kind: skew\nn: two\n"),
    ("header-count-range", "kind: skew\nn: 21\n"),
    ("header-missing-n", "kind: skew\n"),
    ("header-duplicate", "kind: skew\nn: 3\n  n: 2\n"),
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


def _quasi_commutative(field, n: int) -> Presentation:
    """a_ij = +-(t + 3)/2 for the t-th pair i < j, signs alternating: distinct,
    never 0 or +-1, and still distinct mod 101 for n <= 6."""
    pairs = combinations(range(1, n + 1), 2)
    return Presentation.skew(field, n, {pair: ((-1) ** t * Fraction(t + 3, 2), {}, 0)
                                        for t, pair in enumerate(pairs)})


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _calculus(degree: int, samples: int) -> tuple:
    return ("calculus", "--max-degree", str(degree), "--verify-integrability", str(samples))


def _alg(name: str, kind: str, payload, *commands) -> tuple:
    return name, dsl.emit(dsl.AlgebraFile(name, kind, payload.field, payload.n, payload)), commands


def _rows():
    """Yield (name, text of its input or None, commands): each command is a
    subcommand and its flags, and the input's path goes after the subcommand."""
    # (tag, field, commands on every catalog instance, and on those the
    # catalog expects to be sufficiently smooth)
    grids = [(tag, field, (("smooth",), ("classify3d",), ("pbw-check",)), (_calculus(5, 1),))
             for tag, field in FIELDS]
    # a prime of the size the benchmark draws
    grids.append((f"p{WORD_P.p}", WORD_P, (("smooth",),), (_calculus(5, 1),)))
    # at degree 7 the binomials C(7, t) of the shifted twists vanish
    grids.append(("p7", DEGREE_P, (), (_calculus(7, 2),)))
    for tag, field, every, smooth in grids:
        for idx, entry in enumerate(three_dim_grid(field)):
            commands = every + (smooth if entry.expected is Verdict.SMOOTH_SUFFICIENT else ())
            if commands:
                yield _alg(f"skew-{idx:02d}-{entry.label}-{tag}", "skew", entry.presentation,
                           *commands)
    # wider presentations: their integral-form tables have 2^n - 2 index sets
    for tag, field in FIELDS:
        for n in (4, 6):
            yield _alg(f"quasi-n{n}-{tag}", "skew", _quasi_commutative(field, n), _calculus(2, 1))
    n = cli.MAX_CALCULUS_N  # the widest input calculus takes
    yield _alg(f"commutative-n{n}-q", "skew", Presentation.commutative(QQ, n), _calculus(1, 0))
    # at the high degrees the README times
    yield _alg("class-2b-beta3-b7-q", "skew", three_dim_class("2b", beta=3, b=7),
               _calculus(18, 1))
    # the shifted plane x1 x2 - x2 x1 = x1 + x2; over F_5 ker d is disconnected, of dimension 28
    for tag, field in (("q", QQ), ("p5", PrimeField(5))):
        yield _alg(f"shifted-plane-{tag}", "skew",
                   Presentation.skew(field, 2, {(1, 2): (1, {1: 1, 2: 1}, 0)}), _calculus(30, 1))
    # disconnected too: ker d has dimension 7
    yield _alg("class-2b-beta3-b5-p7", "skew", three_dim_class("2b", DEGREE_P, beta=3, b=5),
               _calculus(12, 1))
    # x1 x2 - 3 x2 x1 = 3 x1 + x2 + 2: both twists have a shifted diagonal
    yield _alg("shifted-quasi-plane-q", "skew",
               Presentation.skew(QQ, 2, {(1, 2): (3, {1: 3, 2: 1}, 2)}),
               ("smooth",), ("calculus", "--max-degree", "6"))
    for tag, field in FIELDS:
        for label in DIFFUSION_LABELS:
            for idx, dp in enumerate(diffusion_class_instances(label, field)):
                yield _alg(f"diffusion1-{label}-{idx}-{tag}", "diffusion1", dp,
                           ("pbw-check",), ("diffusion-classify",))
                type2 = DiffusionPresentation(dp.n, DiffusionType.TYPE2, dp.lambdas, (), field)
                yield _alg(f"diffusion2-{label}-{idx}-{tag}", "diffusion2", type2, ("pbw-check",))
    for seed in (0, 3):
        yield f"seed{seed}", None, (("verify-identities", "--seed", str(seed)),)
    # the shape of the identities benchmark job
    for seed in (0, 3, 271828):
        yield f"bench-shape-seed{seed}", None, (
            ("verify-identities", "--n-max", "4", "--samples", "1", "--seed", str(seed)),)
    for name, text, *flags in MALFORMED:
        command = (("calculus", *flags[0]) if flags
                   else ("pbw-check",) if "diffusion" in text else ("smooth",))
        yield f"malformed-{name}", text, (command,)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Write the CLI's --json output on a fixed corpus to OUTDIR.")
    parser.add_argument("outdir")
    outdir = parser.parse_args().outdir
    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    start = time.perf_counter()
    count = 0
    for name, text, commands in _rows():
        path = []
        if text is not None:
            path = [os.path.join(outdir, "inputs", f"{name}.alg")]
            _write(path[0], text)
        for command, *flags in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([command, *path, *flags, "--json"])
            stem = os.path.join(outdir, f"{name}.{command}")
            _write(stem + ".json", out.getvalue())
            if rc:
                _write(stem + ".err", f"exit {rc}\n{err.getvalue()}")
            count += 1
    print(f"{count} outputs in {outdir} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
