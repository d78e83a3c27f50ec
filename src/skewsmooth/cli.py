"""Command-line surface.

Subcommands: smooth, classify3d, calculus, diffusion-classify,
verify-identities, pbw-check.  Exit code 0 means the tool ran to completion
(whatever the mathematical verdict), 1 an input error, 2 a usage error from
argparse and 3 an internal error.  All sampled reports are driven by an
explicit seed, so identical inputs and flags give byte-identical JSON.

The handlers import ``calculus``, ``dsl`` and ``diffusion`` where they call
them, so a process loads only the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algebra import Presentation
from .errors import SkewSmoothError
from .smoothness import Verdict, classify_3d, decide

_CALCULUS_SEED = 20240 + 1  # fixed: the calculus command takes no seed flag

# Bounds on ``verify-identities``: below 1 a check would run on nothing and
# report a hollow PASS; the power-commutation checks grow about as
# samples * n_max^2, and the two maxima together take about 2 s (1.5-2.2 s
# and 17 MB per process on a 2-vCPU Intel Xeon VM, Python 3.11.7), nearly
# all of it in those checks: the ladder check takes under 1 ms.
MAX_IDENTITY_N = 20
MAX_IDENTITY_SAMPLES = 50
# the ladder recurrences are checked up to this n whatever --n-max is
LADDER_N_MAX = 30

# Bounds on ``calculus``: the integral-form stage and the integrability
# sampling loop over all 2^n index sets, and the d^2 check and the kernel walk
# the monomials of degree <= D, C(D + n, n) of them.  With shifted twists a
# ladder sum L_i(D) fills up to all D powers of x_i below it, hence also a
# bound on D itself.  Measured costs are in README.
MAX_CALCULUS_N = 10
MAX_CALCULUS_DEGREE = 30
MAX_CALCULUS_MONOMIALS = 2000
MAX_INTEGRABILITY_SAMPLES = 50


def _endo_json(pres: Presentation, endo) -> dict:
    images = {}
    for g in range(1, pres.n + 1):
        images[pres.names[g - 1]] = pres.format_poly(endo.image_poly(pres, g))
    return images


def _load(path: str, want_kinds):
    from . import dsl
    alg = dsl.parse_file(path)
    if alg.kind not in want_kinds:
        raise SkewSmoothError(
            f"{path}: kind {alg.kind!r} not supported by this command "
            f"(expected one of {sorted(want_kinds)})")
    return alg


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_smooth(args) -> int:
    alg = _load(args.file, {"skew"})
    pres = alg.payload
    gkdim_defaulted = args.gkdim is None
    gkdim = pres.n if gkdim_defaulted else args.gkdim
    if not 0 <= gkdim <= pres.n:
        raise SkewSmoothError(f"--gkdim must be between 0 and {pres.n}, not {gkdim}")
    verdict = decide(pres, gkdim)
    if gkdim_defaulted and not args.json:
        sys.stderr.write(f"notice: --gkdim not given, defaulting to n = {pres.n}\n")
    payload = {
        "command": "smooth",
        "name": alg.name,
        "n": pres.n,
        "field": alg.field.name,
        "gkdim": gkdim,
        "gkdim_defaulted": gkdim_defaulted,
        "verdict": verdict.verdict.value,
        "reasons": list(verdict.reasons),
        "obstruction": list(verdict.obstruction) if verdict.obstruction else None,
        "witness": [_endo_json(pres, nu) for nu in verdict.witness]
        if verdict.witness else None,
    }
    lines = [f"verdict: {verdict.verdict.value} (gkdim {gkdim})"]
    lines += [f"reason: {r}" for r in verdict.reasons]
    for g, images in zip(pres.names, payload["witness"] or ()):
        lines.append(f"nu_{g}: " + ", ".join(f"{h} -> {img}" for h, img in images.items()))
    _emit(payload, args.json, lines)
    return 0


def _cmd_classify3d(args) -> int:
    alg = _load(args.file, {"skew"})
    cls = classify_3d(alg.payload)
    payload = {
        "command": "classify3d",
        "name": alg.name,
        "label": cls.label,
        "parameters": {k: str(v) for k, v in cls.parameters.items()},
        "header_condition": cls.header_ok,
    }
    _emit(payload, args.json,
          [f"class: {cls.label}",
           *(f"{k} = {v}" for k, v in sorted(cls.parameters.items()))])
    return 0


def _cmd_pbw_check(args) -> int:
    alg = _load(args.file, {"skew", "diffusion1", "diffusion2"})
    pres = alg.presentation()
    report = pres.check_pbw_overlaps()
    payload = {
        "command": "pbw-check",
        "name": alg.name,
        "all_pass": report.all_pass,
        "triples": [
            {"i": c.i, "j": c.j, "k": c.k, "status": "PASS" if c.passed else "FAIL",
             "discrepancy": None if c.passed else pres.format_poly(c.discrepancy)}
            for c in report.checks
        ],
    }
    lines = [f"overlaps: {'all PASS' if report.all_pass else 'FAILURES'}"]
    for t in payload["triples"]:
        status = "PASS" if t["discrepancy"] is None else f"FAIL  discrepancy {t['discrepancy']}"
        lines.append(f"({t['i']},{t['j']},{t['k']}): {status}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_calculus(args) -> int:
    bound = args.max_degree
    samples = args.verify_integrability
    if not 0 <= samples <= MAX_INTEGRABILITY_SAMPLES:
        raise SkewSmoothError(f"--verify-integrability must be between 0 and "
                              f"{MAX_INTEGRABILITY_SAMPLES}, not {samples}")
    if not 1 <= bound <= MAX_CALCULUS_DEGREE:
        raise SkewSmoothError(f"--max-degree must be between 1 and {MAX_CALCULUS_DEGREE}, "
                              f"not {bound}")
    alg = _load(args.file, {"skew"})
    pres = alg.payload
    if pres.n > MAX_CALCULUS_N:
        raise SkewSmoothError(f"calculus takes at most {MAX_CALCULUS_N} generators, "
                              f"not n = {pres.n}")
    monomials = math.comb(bound + pres.n, pres.n)
    if monomials > MAX_CALCULUS_MONOMIALS:
        raise SkewSmoothError(f"--max-degree {bound} at n = {pres.n} gives {monomials} "
                              f"monomials, more than {MAX_CALCULUS_MONOMIALS}")
    verdict = decide(pres, pres.n)
    payload = {
        "command": "calculus",
        "name": alg.name,
        "verdict": verdict.verdict.value,
        "max_degree": bound,
    }
    lines = [f"verdict: {verdict.verdict.value}"]
    if verdict.verdict is not Verdict.SMOOTH_SUFFICIENT:
        payload.update({"reasons": list(verdict.reasons), "calculus": None})
        lines += ["no witness twist family; calculus not built"]
        lines += [f"reason: {r}" for r in verdict.reasons]
        _emit(payload, args.json, lines)
        return 0
    from . import calculus as calc
    ctx = calc.CalculusContext(pres, verdict.witness)
    dd_failures = calc.d_squared_failures(ctx, bound)
    kernel = calc.kernel_of_d_bounded(ctx, bound)
    connected = calc.kernel_is_scalars(kernel, pres.n)
    coeffs = calc.integral_form_coefficients(ctx)
    omega = ctx.volume_form()
    normalization_ok = all(
        ctx.wedge(coeffs.barred(ctx, pres.n - k, complement),
                  coeffs.unbarred(ctx, k, subset)) == omega
        for k in range(1, pres.n) for subset, complement in calc.complementary_pairs(pres.n, k))
    mismatches = [
        {"degree": ch.degree, "subset": list(ch.subset),
         "product_normalizes": ch.product_normalizes}
        for ch in coeffs.closed_form_checks if not ch.matches_constructive
    ]
    payload["calculus"] = {
        "d_squared_zero": not dd_failures,
        "connected_at_bound": connected,
        "kernel_dimension": len(kernel),
        "integral_form_normalization": normalization_ok,
        "closed_form_mismatches": mismatches,
    }
    lines += [
        f"d^2 = 0 on monomials of degree <= {bound}: {'yes' if not dd_failures else 'NO'}",
        f"connected at degree {bound}: {'yes' if connected else 'NO'} "
        f"(kernel dimension {len(kernel)})",
        f"integral-form normalization: {'ok' if normalization_ok else 'BROKEN'}",
        f"closed-form coefficient mismatches (recorded, not patched): {len(mismatches)}",
    ]
    if samples:
        report = calc.verify_integrability(ctx, min(bound, 3), samples,
                                           seed=_CALCULUS_SEED, coefficients=coeffs)
        payload["calculus"]["integrability"] = {
            "degree": report.max_degree,
            "seed": _CALCULUS_SEED,
            "samples": report.samples,
            "pass": report.all_pass,
            "failures": [list(f) for f in report.failures],
        }
        lines.append(f"integrability sampling ({report.samples} forms/degree): "
                     f"{'PASS' if report.all_pass else 'FAIL'}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_diffusion_classify(args) -> int:
    from . import diffusion as diff
    alg = _load(args.file, {"diffusion1"})
    labels = sorted(diff.classify_diffusion_3(alg.payload))
    payload = {
        "command": "diffusion-classify",
        "name": alg.name,
        "labels": labels,
        "crosswalk": {lab: diff.crosswalk_to_3d(lab) for lab in labels},
    }
    lines = [f"classes: {', '.join(labels) if labels else '(none)'}"]
    lines += [f"{lab} -> {target}" for lab, target in payload["crosswalk"].items()]
    _emit(payload, args.json, lines)
    return 0


def _commutation_json(report) -> dict:
    counter = None
    if report.counterexample:
        counter = {k: (v if isinstance(v, (int, str)) else str(v))
                   for k, v in report.counterexample.items()}
    return {
        "status": report.status,
        "type": report.dtype.value,
        "n_max": report.n_max,
        "samples": report.samples,
        "minimal_failing_n": report.minimal_failing_n,
        "counterexample": counter,
    }


def _cmd_verify_identities(args) -> int:
    for flag, value, bound in (("--n-max", args.n_max, MAX_IDENTITY_N),
                               ("--samples", args.samples, MAX_IDENTITY_SAMPLES)):
        if not 1 <= value <= bound:
            raise SkewSmoothError(f"{flag} must be between 1 and {bound}, not {value}")
    from . import diffusion as diff
    seed = args.seed
    pq = diff.verify_pq_recurrences(LADDER_N_MAX, args.samples, seed)
    right1, left1 = diff.verify_commutation(args.n_max, args.samples, seed,
                                            diff.DiffusionType.TYPE1)
    right2, left2 = diff.verify_commutation(args.n_max, args.samples, seed + 1,
                                            diff.DiffusionType.TYPE2)
    dets = diff.verify_determinant_identities(args.samples, seed)
    payload = {
        "command": "verify-identities",
        "seed": seed,
        "n_max": args.n_max,
        "samples": args.samples,
        "pq_recurrences": {"n_max": pq.n_max, "checked": pq.checked,
                           "pass": pq.all_pass},
        "right_commutation": [_commutation_json(right1), _commutation_json(right2)],
        "left_commutation": [_commutation_json(left1), _commutation_json(left2)],
        "determinant_identities": {"samples": dets.samples, "pass": dets.all_pass},
    }
    lines = [
        f"ladder recurrences (n <= {pq.n_max}): {'PASS' if pq.all_pass else 'FAIL'}",
        f"right commutation type1/type2: {right1.status}/{right2.status}",
        f"left commutation type1/type2: {left1.status}/{left2.status}",
    ]
    for rep in (left1, left2):
        if rep.counterexample:
            lines.append(
                f"  left ({rep.dtype.value}) minimal failing power n = "
                f"{rep.minimal_failing_n}, residual {rep.counterexample['residual']}")
    lines.append(f"determinant identities: {'PASS' if dets.all_pass else 'FAIL'}")
    _emit(payload, args.json, lines)
    return 0


_JSON = ("--json", {"action": "store_true"})
_FILE = ("file", {})

# The subcommands: name -> (help, handler name, arguments), each argument its
# name or flag and the keywords of ``add_argument``.  The handler is looked up
# when a parser is built, so a replaced ``_cmd_*`` is the one that runs.
_COMMANDS = {
    "smooth": ("decide sufficient differential smoothness", "_cmd_smooth",
               (_FILE, ("--gkdim", {"type": int, "default": None}), _JSON)),
    "classify3d": ("match a three-generator presentation against the fifteen "
                   "standard shapes", "_cmd_classify3d", (_FILE, _JSON)),
    "calculus": ("build and check the differential calculus", "_cmd_calculus",
                 (_FILE, ("--max-degree", {"type": int, "required": True}),
                  ("--verify-integrability", {"type": int, "default": 0, "metavar": "S"}),
                  _JSON)),
    "diffusion-classify": ("nine-family classification of a three-generator "
                           "diffusion presentation", "_cmd_diffusion_classify",
                           (_FILE, _JSON)),
    "verify-identities": ("ladder recurrences, power commutation, determinant "
                          "identities", "_cmd_verify_identities",
                          (("--n-max", {"type": int, "default": 6}),
                           ("--samples", {"type": int, "default": 20}),
                           ("--seed", {"type": int, "default": 0}), _JSON)),
    "pbw-check": ("overlap (diamond) report", "_cmd_pbw_check", (_FILE, _JSON)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``command`` alone.

    A one-subcommand parser parses that subcommand exactly as the full one
    does.  Its subcommand metavar lists every name, so the usage line it
    prints with an unrecognized argument is the full parser's too.  Only the
    full parser can print the top-level help or the errors for a missing or
    unknown subcommand, which list the names as choices.
    """
    parser = argparse.ArgumentParser(
        prog="skewsmooth",
        description="Exact smoothness certificates and identity verification "
                    "for quasi-commutation and diffusion-type algebras.")
    if command is None:
        names, metavar = tuple(_COMMANDS), None
    else:
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (SkewSmoothError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:    # a fault of the program, not of the input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
