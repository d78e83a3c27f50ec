"""Output checks, run after the timed phase in a process that never imports
skewsmooth.  Each check compares with a computation made here (the leftmost
rewriter, the ladder formulas) or with a property the method must have (the
paper's verdict table, d^2 = 0, associativity), never with a stored copy of
an earlier output.  Every function returns a list of problems; empty means
the outputs are correct.
"""

from __future__ import annotations

import json

from inputs import CROSSWALK, VERDICTS
from oracle import Field, diffusion_rewriter, left_law, parse_poly, skew_rewriter

SKEW_NAMES = ("x1", "x2", "x3")
D_NAMES = ("D1", "D2", "D3")
CENTRAL_NAMES = D_NAMES + ("x1", "x2", "x3")


def _relations(data: dict) -> dict:
    return {tuple(int(g) for g in key.split(",")):
            (a, {int(g): c for g, c in tail.items()}, e)
            for key, (a, tail, e) in data.items()}


def _lambdas(data: dict) -> dict:
    return {tuple(int(g) for g in key.split(",")): v for key, v in data.items()}


def _rewriter(meta: dict, field: Field):
    """The oracle for a file or rewrite job, with its generator names."""
    if meta["kind"] == "skew":
        return skew_rewriter(field, 3, _relations(meta["relations"])), SKEW_NAMES
    central = meta["kind"] == "diffusion2"
    rw = diffusion_rewriter(field, 3, _lambdas(meta["lambdas"]), meta.get("x"), central)
    return rw, CENTRAL_NAMES if central else D_NAMES


def _payload(output, command: str):
    """The JSON a CLI job printed, or a problem string."""
    if output[0] != "ok":
        return None, f"raised {output[1]}: {output[2]}"
    _, rc, stdout, stderr = output
    if rc != 0:
        return None, f"exit code {rc}: {stderr.strip()}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, "stdout is not JSON"
    if payload.get("command") != command:
        return None, f"payload is for command {payload.get('command')!r}"
    return payload, None


def _check_pbw(payload: dict, meta: dict) -> list:
    field = Field.from_name(meta["field"])
    rw, names = _rewriter(meta, field)
    expected = rw.overlap_discrepancies()
    problems = []
    seen = set()
    for triple in payload["triples"]:
        key = (triple["i"], triple["j"], triple["k"])
        seen.add(key)
        want = expected.get(key)
        if want is None:
            problems.append(f"unexpected triple {key}")
            continue
        if triple["status"] != ("FAIL" if want else "PASS"):
            problems.append(f"triple {key}: status {triple['status']}, oracle "
                            f"discrepancy {want}")
        elif want and parse_poly(triple["discrepancy"], names, field) != want:
            problems.append(f"triple {key}: discrepancy {triple['discrepancy']!r}, "
                            f"oracle {want}")
    if seen != set(expected):
        problems.append(f"triples {sorted(seen)} differ from {sorted(expected)}")
    if payload["all_pass"] != (not any(expected.values())):
        problems.append(f"all_pass is {payload['all_pass']}")
    if meta.get("class") == "5e":
        # class 5e at a != 0 fails the diamond on (1,2,3) by exactly -a x1
        got = parse_poly(payload["triples"][0]["discrepancy"] or "0", names, field)
        if got != {(1, 0, 0): field.neg(field(meta["a"]))}:
            problems.append(f"5e discrepancy {got}, expected -a*x1 with a = {meta['a']}")
    return problems


def check_screen(manifest: dict, outputs) -> list:
    problems = []
    for idx, output in outputs:
        command, name = manifest["jobs"][idx]["argv"][:2]
        meta = manifest["files"][name]
        payload, problem = _payload(output, command)
        where = f"{command} {name}"
        if problem:
            problems.append(f"{where}: {problem}")
            continue
        if command == "smooth":
            want = VERDICTS[meta["class"]]
            if payload["verdict"] != want:
                problems.append(f"{where}: verdict {payload['verdict']}, paper says {want}")
            if (payload["witness"] is not None) != (want == "SMOOTH_SUFFICIENT"):
                problems.append(f"{where}: witness {payload['witness']!r} with {want}")
        elif command == "classify3d":
            want = meta["class"].rstrip("0")
            if payload["label"] != want or payload["header_condition"] is not True:
                problems.append(f"{where}: label {payload['label']} header "
                                f"{payload['header_condition']}, built as {want}")
        elif command == "pbw-check":
            problems += [f"{where}: {p}" for p in _check_pbw(payload, meta)]
        elif command == "diffusion-classify":
            if meta["family"] not in payload["labels"]:
                problems.append(f"{where}: labels {payload['labels']} miss {meta['family']}")
            for label, target in payload["crosswalk"].items():
                if target != CROSSWALK.get(label, "NOT_SKEW"):
                    problems.append(f"{where}: crosswalk {label} -> {target}")
    return problems


def check_calculus(manifest: dict, outputs) -> list:
    problems = []
    for idx, output in outputs:
        name = manifest["jobs"][idx]["argv"][1]
        payload, problem = _payload(output, "calculus")
        if problem:
            problems.append(f"calculus {name}: {problem}")
            continue
        calc = payload.get("calculus") or {}
        facts = {
            "verdict": payload["verdict"] == "SMOOTH_SUFFICIENT",
            "d_squared_zero": calc.get("d_squared_zero") is True,
            "connected_at_bound": calc.get("connected_at_bound") is True,
            "kernel_dimension": calc.get("kernel_dimension") == 1,
            "integral_form_normalization": calc.get("integral_form_normalization") is True,
            "integrability": (calc.get("integrability") or {}).get("pass") is True,
        }
        problems += [f"calculus {name}: {fact} does not hold" for fact, ok in facts.items()
                     if not ok]
    return problems


def _check_left(entry: dict) -> list:
    """Recompute a left-commutation counterexample with the oracle."""
    ce = entry["counterexample"]
    q = Field(0)
    central = entry["type"] == "type2"
    n, lam_ij, lam_ji = ce["n"], q(ce["lambda_ij"]), q(ce["lambda_ji"])
    x_i, x_j = q(ce["x_i"]), q(ce["x_j"])
    rw = diffusion_rewriter(q, 2, {(1, 2): lam_ij, (2, 1): lam_ji}, (x_i, x_j), central)
    residual = {m: c * lam_ij ** n for m, c in rw.normal_form([(1, (1,) + (2,) * n)]).items()}
    for m, c in left_law(n, lam_ij, lam_ji, x_i, x_j, central).items():
        residual[m] = residual.get(m, 0) - c
    residual = {m: c for m, c in residual.items() if c}
    names = ("D1", "D2", "x1", "x2") if central else ("D1", "D2")
    problems = []
    if not residual:
        problems.append(f"left {entry['type']}: oracle finds no discrepancy at {ce}")
    elif parse_poly(ce["residual"], names, q) != residual:
        problems.append(f"left {entry['type']}: residual {ce['residual']!r}, oracle {residual}")
    if entry["minimal_failing_n"] != n:
        problems.append(f"left {entry['type']}: minimal n {entry['minimal_failing_n']} != {n}")
    return problems


def check_identities(manifest: dict, outputs) -> list:
    problems = []
    for idx, output in outputs:
        argv = manifest["jobs"][idx]["argv"]
        opts = dict(zip(argv[1::2], (int(v) for v in argv[2::2])))
        where = f"verify-identities --seed {opts['--seed']}"
        payload, problem = _payload(output, "verify-identities")
        if problem:
            problems.append(f"{where}: {problem}")
            continue
        n_cap = max(30, opts["--n-max"])
        pq = payload["pq_recurrences"]
        if not pq["pass"] or pq["checked"] != (opts["--samples"] + 1) * n_cap * (n_cap - 1):
            problems.append(f"{where}: pq_recurrences {pq}")
        types = [r["type"] for r in payload["right_commutation"]]
        if types != ["type1", "type2"] or any(r["status"] != "PASS"
                                              for r in payload["right_commutation"]):
            problems.append(f"{where}: right commutation {payload['right_commutation']}")
        if not payload["determinant_identities"]["pass"]:
            problems.append(f"{where}: determinant identities fail")
        for entry in payload["left_commutation"]:
            if entry["status"] == "DISCREPANT":
                problems += [f"{where}: {p}" for p in _check_left(entry)]
            elif entry["type"] == "type2" or entry["counterexample"] is not None:
                # with central x's the stated law fails at n = 1 for every sample
                problems.append(f"{where}: left {entry['type']} reported {entry['status']}")
    return problems


def _poly(exported, field: Field) -> dict:
    return {tuple(m): field(c) for m, c in exported}


def check_rewrite(manifest: dict, outputs) -> list:
    problems = []
    for idx, output in outputs:
        spec = manifest["jobs"][idx]
        field = Field.from_name(spec["field"])
        where = f"rewrite job {idx} ({spec['kind']} {spec['source']} over {spec['field']})"
        if spec.get("deep"):
            if output[0] == "error" and output[1] == "RecursionError":
                continue            # the known failure, counted as failed
            if output[0] != "ok":
                problems.append(f"{where}: raised {output[1]}: {output[2]}")
                continue
            rel = _relations(spec["relations"])
            scale = field.inv(field.mul(field.mul(field(rel[(1, 2)][0]), field(rel[(1, 3)][0])),
                                        field(rel[(2, 3)][0])))
            length = len(spec["words"][0]) // 3
            want = {(length,) * 3: field.pow(scale, length * length)}
            if _poly(output[1][0], field) != want:
                problems.append(f"{where}: deep word does not match the closed form")
            continue
        if output[0] != "ok":
            problems.append(f"{where}: raised {output[1]}: {output[2]}")
            continue
        _, forms, products = output
        rw, _ = _rewriter(spec, field)
        for k in spec["short_words"]:
            want = rw.normal_form([(1, tuple(spec["words"][k]))])
            if _poly(forms[k], field) != want:
                problems.append(f"{where}: normal form of {spec['words'][k]} differs from oracle")
        p, q = (_poly(poly, field) for poly in spec["polys"][:2])
        if _poly(products[0], field) != rw.multiply(p, q):
            problems.append(f"{where}: p*q differs from oracle")
        if products[1] != products[2]:
            problems.append(f"{where}: (p*q)*r != p*(q*r)")
    return problems


CHECKS = {"screen": check_screen, "calculus": check_calculus, "rewrite": check_rewrite,
          "identities": check_identities}
