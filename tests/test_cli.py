import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from skewsmooth.cli import (MAX_CALCULUS_DEGREE, MAX_CALCULUS_MONOMIALS, MAX_CALCULUS_N,
                            MAX_IDENTITY_N, MAX_IDENTITY_SAMPLES, MAX_INTEGRABILITY_SAMPLES,
                            LADDER_N_MAX, _CALCULUS_SEED, _COMMANDS, build_parser, main)
from skewsmooth.dsl import parse_file

REFERENCE3 = """\
name: reference3
kind: skew
field: Q
n: 3
x1*x2 - 5*x2*x1 = 0
x1*x3 - 1/3*x3*x1 = 0
x2*x3 - 2*x3*x2 = 0
"""

CLASS_5A = """\
name: class5a
kind: skew
field: Q
n: 3
x2*x3 - x3*x2 = x1
x1*x3 - x3*x1 = -x2
x1*x2 - x2*x1 = x3
"""

CLASS_5E = """\
name: class5e
kind: skew
field: Q
n: 3
x2*x3 - x3*x2 = x3
x1*x3 - x3*x1 = -x1
x1*x2 - x2*x1 = 0
"""

EMPTY_K = """\
name: emptyk
kind: skew
field: Q
n: 3
x1*x2 - 1*x2*x1 = 2*x1 - x2 - 1
x1*x3 - 1*x3*x1 = x1 + x3 + 1
x2*x3 - 1*x3*x2 = -x2 + 2*x3 + 1
"""

DIFF_D = """\
name: classD
kind: diffusion1
field: Q
n: 3
lambda 1 2 = 2
lambda 2 1 = 1
lambda 1 3 = 3
lambda 3 1 = 5
lambda 2 3 = 4
lambda 3 2 = 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("reference3", REFERENCE3), ("class5a", CLASS_5A),
                       ("class5e", CLASS_5E), ("emptyk", EMPTY_K), ("diffD", DIFF_D)]:
        p = tmp_path / f"{name}.alg"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_smooth_sufficient(files, capsys):
    code, out, _ = run(capsys, "smooth", files["reference3"])
    assert code == 0
    assert "SMOOTH_SUFFICIENT" in out


def test_smooth_not_smooth_still_exit_zero(files, capsys):
    code, out, err = run(capsys, "smooth", files["class5a"])
    assert code == 0
    assert "NOT_SMOOTH" in out
    assert err == ""


def test_smooth_json_payload(files, capsys):
    code, out, _ = run(capsys, "smooth", files["reference3"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "SMOOTH_SUFFICIENT"
    assert payload["gkdim"] == 3 and "gkdim_defaulted" not in payload
    assert len(payload["witness"]) == 3


def test_smooth_empty_k_systems(files, capsys):
    code, out, _ = run(capsys, "smooth", files["emptyk"])
    assert code == 0
    assert out.splitlines() == [
        "verdict: INCONCLUSIVE (gkdim 3)",
        "reason: no admissible (a_kk, b_kk) for k=1; constraints: relation (1, 2) at x_2, "
        "relation (1, 2) at 1, relation (1, 3) at x_3, relation (1, 3) at 1",
        "reason: no admissible (a_kk, b_kk) for k=2; constraints: relation (1, 2) at x_1, "
        "relation (1, 2) at 1, relation (2, 3) at x_3, relation (2, 3) at 1",
        "reason: no admissible (a_kk, b_kk) for k=3; constraints: relation (1, 3) at x_1, "
        "relation (1, 3) at 1, relation (2, 3) at x_2, relation (2, 3) at 1",
    ]


def test_smooth_takes_no_gkdim(files, capsys):
    """The GK dimension of an input that passes the PBW gate is n, so
    ``smooth`` has no flag to set it: ``--gkdim`` is a usage error."""
    code, out, err = exit_outcome(
        capsys, lambda: main(["smooth", files["class5a"], "--gkdim", "3"]))
    assert code == 2 and out == ""
    assert err.endswith("error: unrecognized arguments: --gkdim 3\n")


# Presentations whose ordered monomials are not a basis.  Each was certified
# before ``decide`` checked the overlaps.  Each discrepancy is a nonzero
# scalar, so 1 = 0: these are zero algebras.  The first is the smallest
# example; the other two are draws 6589 and 13728 of a search with
# random.Random(1), which draws, pair by pair, a quad coefficient from
# {1, -1, 2, 3, 1/2}, then the tail coefficients on x1, x2, x3 and the
# constant, each nonzero with probability 0.4 and then drawn from -2..3
# without 0.
NON_PBW = [
    ("zero", "x1*x2 - 1*x2*x1 = -1\nx1*x3 - 1*x3*x1 = -2*x1 - 2*x3\n"
             "x2*x3 - 1*x3*x2 = 0\n", "2"),
    ("draw6589", "x1*x2 - 1*x2*x1 = -x1\nx1*x3 - 3*x3*x1 = 1\n"
                 "x2*x3 - 1*x3*x2 = 0\n", "1/3"),
    ("draw13728", "x1*x2 - 1*x2*x1 = -x1\nx1*x3 - 1/2*x3*x1 = 2\n"
                  "x2*x3 - 1*x3*x2 = 3*x3\n", "16"),
]


@pytest.mark.parametrize("name, body, discrepancy", NON_PBW, ids=[n for n, _, _ in NON_PBW])
def test_non_pbw_input_is_never_certified(tmp_path, capsys, name, body, discrepancy):
    """``smooth`` and ``calculus`` answer INCONCLUSIVE with the overlap that
    ``pbw-check`` reports, and build no calculus."""
    path = tmp_path / f"{name}.alg"
    path.write_text(f"name: {name}\nkind: skew\nfield: Q\nn: 3\n{body}")
    code, out, _ = run(capsys, "pbw-check", str(path), "--json")
    assert [t["discrepancy"] for t in json.loads(out)["triples"]] == [discrepancy]
    reason = f"ordered monomials are not a basis: overlap (1,2,3) has discrepancy {discrepancy}"
    code, out, err = run(capsys, "smooth", str(path), "--json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert (payload["verdict"], payload["reasons"], payload["witness"], payload["gkdim"]) == \
        ("INCONCLUSIVE", [reason], None, 3)
    code, out, _ = run(capsys, "calculus", str(path), "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == ["verdict: INCONCLUSIVE",
                                "no witness twist family; calculus not built",
                                f"reason: {reason}"]


def test_quantum_affine_space_keeps_three_twists(tmp_path, capsys):
    """A PBW input passes the gate: certified with one twist per generator,
    at gkdim n, with a connected calculus."""
    path = tmp_path / "qas.alg"
    path.write_text("kind: skew\nn: 3\nx1*x2 - 2*x2*x1 = 0\nx1*x3 - 3*x3*x1 = 0\n"
                    "x2*x3 - 5*x3*x2 = 0\n")
    code, out, _ = run(capsys, "smooth", str(path), "--json")
    payload = json.loads(out)
    assert (code, payload["verdict"], payload["gkdim"]) == (0, "SMOOTH_SUFFICIENT", 3)
    assert len(payload["witness"]) == 3
    code, out, _ = run(capsys, "calculus", str(path), "--max-degree", "4", "--json")
    assert code == 0 and json.loads(out)["calculus"]["connected_at_bound"] is True


def test_classify3d(files, capsys):
    code, out, _ = run(capsys, "classify3d", files["class5a"])
    assert code == 0
    assert "5a" in out


def test_classify3d_json(files, capsys):
    code, out, _ = run(capsys, "classify3d", files["class5e"], "--json")
    payload = json.loads(out)
    assert payload["label"] == "5e"
    assert payload["parameters"]["a"] == "1"


def test_pbw_check(files, capsys):
    code, out, _ = run(capsys, "pbw-check", files["diffD"], "--json")
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["triples"][0]["status"] == "PASS"


def test_calculus_report(files, capsys):
    code, out, _ = run(capsys, "calculus", files["reference3"], "--max-degree", "3",
                       "--verify-integrability", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    calculus = payload["calculus"]
    assert calculus["d_squared_zero"] is True
    assert calculus["connected_at_bound"] is True
    assert calculus["kernel_dimension"] == 1
    assert calculus["integral_form_normalization"] is True
    assert calculus["integrability"]["pass"] is True
    assert calculus["integrability"]["degree"] == 3
    assert calculus["integrability"]["seed"] == _CALCULUS_SEED


def test_calculus_builds_the_kernel_once(files, capsys, monkeypatch):
    from skewsmooth import calculus
    calls = []
    original = calculus.kernel_of_d_bounded

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(calculus, "kernel_of_d_bounded", counting)
    code, out, _ = run(capsys, "calculus", files["reference3"], "--max-degree", "4", "--json")
    assert code == 0
    assert json.loads(out)["calculus"]["connected_at_bound"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("key", [(1, (1,)), (1, (2,)), (1, (3,)),
                                 (2, (1, 2)), (2, (1, 3)), (2, (2, 3))])
def test_calculus_normalization_wedges_the_table(files, capsys, monkeypatch, key):
    """One wrong Abar entry in the coefficient table makes the normalization
    check, which wedges the table's forms, report false."""
    from skewsmooth import calculus
    original = calculus.integral_form_coefficients

    def corrupted(ctx):
        coeffs = original(ctx)
        return coeffs._replace(abar={**coeffs.abar, key: coeffs.abar[key] * 2})

    monkeypatch.setattr(calculus, "integral_form_coefficients", corrupted)
    code, out, _ = run(capsys, "calculus", files["reference3"], "--max-degree", "1", "--json")
    assert code == 0
    assert json.loads(out)["calculus"]["integral_form_normalization"] is False


def test_calculus_without_witness(files, capsys):
    code, out, _ = run(capsys, "calculus", files["class5a"], "--max-degree", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_SMOOTH"
    assert payload["calculus"] is None


def test_diffusion_classify(files, capsys):
    code, out, _ = run(capsys, "diffusion-classify", files["diffD"], "--json")
    payload = json.loads(out)
    assert payload["labels"] == ["D"]
    assert payload["crosswalk"] == {"D": "1"}


def test_verify_identities_json(capsys):
    code, out, _ = run(capsys, "verify-identities", "--n-max", "3", "--samples", "4",
                       "--seed", "42", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pq_recurrences"]["pass"] is True
    # the ladder height is fixed, and above every --n-max the command takes
    assert payload["pq_recurrences"]["n_max"] == LADDER_N_MAX == 30 > MAX_IDENTITY_N
    assert all(rep["status"] == "PASS" for rep in payload["right_commutation"])
    assert all(rep["status"] == "DISCREPANT" for rep in payload["left_commutation"])
    assert payload["left_commutation"][0]["minimal_failing_n"] == 1
    assert payload["determinant_identities"]["pass"] is True


def test_verify_identities_deterministic(capsys):
    args = ["verify-identities", "--n-max", "3", "--samples", "5", "--seed", "42", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


@pytest.mark.parametrize("flag, value, bound", [
    ("--n-max", 0, MAX_IDENTITY_N),
    ("--n-max", -3, MAX_IDENTITY_N),
    ("--n-max", MAX_IDENTITY_N + 1, MAX_IDENTITY_N),
    ("--samples", 0, MAX_IDENTITY_SAMPLES),
    ("--samples", -2, MAX_IDENTITY_SAMPLES),
    ("--samples", 10 ** 9, MAX_IDENTITY_SAMPLES),
])
def test_verify_identities_rejects_hollow_and_oversized_counts(capsys, flag, value, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-identities", flag, str(value), "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be between 1 and {bound}, not {value}\n"


def test_verify_identities_accepts_the_least_counts(capsys):
    code, out, _ = run(capsys, "verify-identities", "--n-max", "1", "--samples", "1", "--json")
    assert code == 0
    assert json.loads(out)["n_max"] == 1


def _read_fraction(text: str) -> Fraction:
    """Fraction(text) without int()'s digit limit: 1000 digits at a time."""
    def read_int(digits):
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        value = 0
        for at in range(0, len(digits), 1000):
            chunk = digits[at:at + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value
    num, _, den = text.partition("/")
    return Fraction(read_int(num), read_int(den) if den else 1)


def test_scalars_past_the_digit_limit_print(tmp_path, capsys):
    # a discrepancy multiplies 2500-digit scalars, past str()'s limit of 4300 digits
    rng = random.Random(14)
    pairs = ((1, 2), (1, 3), (2, 3))

    def big():
        return rng.randrange(10 ** 2499, 10 ** 2500)

    def write(name, kind, body):
        path = tmp_path / f"{name}.alg"
        path.write_text("\n".join([f"name: {name}", f"kind: {kind}", "field: Q", "n: 3", *body])
                        + "\n")
        return str(path)

    path = write("big", "skew", [f"x{i}*x{j} - {big()}*x{j}*x{i} = {big()}" for i, j in pairs])
    for argv in (["smooth"], ["pbw-check"], ["calculus", "--max-degree", "4"], ["classify3d"]):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 0 and "internal error" not in err and out
    # the constants spoil the overlap, and the reason prints its discrepancy
    code, out, _ = run(capsys, "smooth", path, "--json")
    discrepancy = json.loads(out)["reasons"][0].split(" has discrepancy ", 1)[1]
    coefficient, monomial = discrepancy.split(" ", 1)[0].rsplit("*", 1)
    overlap, = parse_file(path).presentation().check_pbw_overlaps().failures()
    assert len(coefficient) > sys.get_int_max_str_digits() and monomial == "x1"
    assert _read_fraction(coefficient) == overlap.discrepancy.terms[(1, 0, 0)]
    # distinct 2500-digit ratios and no tails: sufficiently smooth, so the
    # calculus is built, and the witness prints each ratio
    ratios = write("ratios", "skew", [f"x{i}*x{j} - {big()}/{big()}*x{j}*x{i} = 0"
                                      for i, j in pairs])
    # diffusion coefficients of 2500 digits: overlap discrepancies of thousands more
    lambdas = [f"lambda {i} {j} = {big()}" for i in range(1, 4) for j in range(1, 4) if i != j]
    type1 = write("type1", "diffusion1", lambdas + [f"x {i} = {big()}" for i in range(1, 4)])
    type2 = write("type2", "diffusion2", lambdas)
    outputs = {}
    for path, command, *flags in ((ratios, "smooth", "--json"),
                                  (ratios, "calculus", "--max-degree", "3",
                                   "--verify-integrability", "1"),
                                  (type1, "pbw-check"), (type1, "diffusion-classify"),
                                  (type2, "pbw-check")):
        code, out, err = run(capsys, command, path, *flags)
        assert code == 0 and "internal error" not in err and out
        outputs[path, command] = out
    witness = json.loads(outputs[ratios, "smooth"])["witness"]
    assert max(len(img) for nu in witness for img in nu.values()) > 5000
    assert "integrability sampling (1 forms/degree): PASS" in outputs[ratios, "calculus"]
    for path in (type1, type2):
        assert max(map(len, outputs[path, "pbw-check"].split())) > 12000


@pytest.fixture
def no_decide(monkeypatch):
    """Fail the test if ``smooth`` or ``calculus`` starts deciding: the bounds
    come first."""
    from skewsmooth import cli

    def never(*args):
        raise AssertionError("decide ran on rejected input")

    monkeypatch.setattr(cli, "decide", never)


@pytest.mark.parametrize("flags, message", [
    (["--max-degree", "3", "--verify-integrability", "-3"],
     f"--verify-integrability must be between 0 and {MAX_INTEGRABILITY_SAMPLES}, not -3"),
    (["--max-degree", "3", "--verify-integrability", str(MAX_INTEGRABILITY_SAMPLES + 1)],
     f"--verify-integrability must be between 0 and {MAX_INTEGRABILITY_SAMPLES}, "
     f"not {MAX_INTEGRABILITY_SAMPLES + 1}"),
    (["--max-degree", "0"], f"--max-degree must be between 1 and {MAX_CALCULUS_DEGREE}, not 0"),
    (["--max-degree", "-2"], f"--max-degree must be between 1 and {MAX_CALCULUS_DEGREE}, not -2"),
    (["--max-degree", str(10 ** 100)],
     f"--max-degree must be between 1 and {MAX_CALCULUS_DEGREE}, not {10 ** 100}"),
    (["--max-degree", "21"],
     f"--max-degree 21 at n = 3 gives {comb(24, 3)} monomials, more than {MAX_CALCULUS_MONOMIALS}"),
])
def test_calculus_rejects_hollow_and_oversized_bounds(files, capsys, no_decide, flags, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "calculus", files["reference3"], *flags, "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_calculus_rejects_too_many_generators(tmp_path, capsys, no_decide):
    wide = tmp_path / "wide.alg"
    wide.write_text(f"kind: skew\nn: {MAX_CALCULUS_N + 1}\n")
    code, out, err = run(capsys, "calculus", str(wide), "--max-degree", "1")
    assert code == 1 and out == ""
    assert err == (f"error: calculus takes at most {MAX_CALCULUS_N} generators, "
                   f"not n = {MAX_CALCULUS_N + 1}\n")


def test_calculus_accepts_the_bounds(files, capsys):
    code, out, _ = run(capsys, "calculus", files["reference3"], "--max-degree", "1",
                       "--verify-integrability", str(MAX_INTEGRABILITY_SAMPLES), "--json")
    assert code == 0
    assert json.loads(out)["calculus"]["integrability"]["samples"] == MAX_INTEGRABILITY_SAMPLES
    code, out, _ = run(capsys, "calculus", files["reference3"], "--max-degree", "2",
                       "--verify-integrability", "0", "--json")
    assert code == 0
    assert "integrability" not in json.loads(out)["calculus"]
    # the largest degree under the monomial bound at n = 3; class 5a builds no calculus
    assert comb(20 + 3, 3) <= MAX_CALCULUS_MONOMIALS < comb(21 + 3, 3)
    code, out, _ = run(capsys, "calculus", files["class5a"], "--max-degree", "20", "--json")
    assert code == 0
    assert json.loads(out)["max_degree"] == 20


def test_calculus_deterministic_without_seed_flag(files, capsys):
    args = ["calculus", files["reference3"], "--max-degree", "3",
            "--verify-integrability", "2", "--json"]
    main(list(args))
    out1 = capsys.readouterr().out
    main(list(args))
    out2 = capsys.readouterr().out
    assert out1.encode() == out2.encode()


def test_kind_mismatch_is_an_error(files, capsys):
    code, _, err = run(capsys, "smooth", files["diffD"])
    assert code == 1
    assert "kind" in err


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "smooth", "/nonexistent/path.alg")
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_nonzero(files):
    with pytest.raises(SystemExit) as exc:
        main(["smooth", files["reference3"], "--frobnicate"])
    assert exc.value.code == 2


def test_parse_error_has_position(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("kind: skew\nn: 2\nx1*x2 - 1/0*x2*x1 = 0\n")
    code, _, err = run(capsys, "smooth", str(bad))
    assert code == 1
    assert "line 3" in err


def test_internal_error_exits_three_without_traceback(files, capsys, monkeypatch):
    from skewsmooth import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_smooth", broken)
    code, out, err = run(capsys, "smooth", files["reference3"])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_huge_generator_count_is_a_quick_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.alg"
    huge.write_text("kind: skew\nn: 100000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "smooth", str(huge))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "line 2" in err


# Calls that end in argparse: help, and each kind of usage error.  "FILE"
# stands for a presentation file.
USAGE_CASES = [
    ["--help"], ["-h", "smooth"], [], ["bogus"],
    *([name, "--help"] for name in _COMMANDS),
    ["calculus", "FILE"], ["calculus", "FILE", "--max-degree", "q"],
    ["smooth", "FILE", "--bogus"], ["verify-identities", "--n-max"],
]


def exit_outcome(capsys, call):
    with pytest.raises(SystemExit) as exc:
        call()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
def test_usage_output_is_the_full_parsers(files, capsys, argv):
    """``main`` builds one subcommand's parser when the first argument names
    it; what argparse prints and the exit status equal the full tree's."""
    argv = [files["reference3"] if arg == "FILE" else arg for arg in argv]
    got = exit_outcome(capsys, lambda: main(list(argv)))
    want = exit_outcome(capsys, lambda: build_parser().parse_args(list(argv)))
    assert got == want
    assert want[1] or want[2]


def test_subcommand_errors_name_the_argument_command(capsys):
    """A missing or unknown subcommand is reported as ``command`` with the
    names as choices, not under the metavar of a one-subcommand parser."""
    choices = ", ".join(f"'{name}'" for name in _COMMANDS)
    _, _, err = exit_outcome(capsys, lambda: main(["bogus"]))
    assert err.endswith(f"error: argument command: invalid choice: 'bogus' "
                        f"(choose from {choices})\n")
    _, _, err = exit_outcome(capsys, lambda: main([]))
    assert err.endswith("error: the following arguments are required: command\n")


def test_console_entry_point_reads_sys_argv(files, capsys, monkeypatch):
    """``python -m skewsmooth.cli`` parses ``sys.argv``, as the console
    script does, and prints what an in-process call prints."""
    import skewsmooth
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(skewsmooth.__file__).resolve().parent.parent))
    argv = ["smooth", files["reference3"], "--json"]
    for args, want in [(argv, run(capsys, *argv)),
                       (["--help"], exit_outcome(capsys, lambda: main(["--help"])))]:
        proc = subprocess.run([sys.executable, "-m", "skewsmooth.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["smooth", "pbw-check"])
def test_closed_stdout_ends_as_sigpipe_would(files, command, unbuffered):
    """A reader that closed the pipe (``smooth FILE | head -0``) is not an
    input error: the command exits 141, the shell's status for SIGPIPE, and
    writes nothing to stderr, whether stdout is buffered or not.  The read
    end is closed before the process starts, so every write fails."""
    import skewsmooth
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(skewsmooth.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "skewsmooth.cli", command,
                               files["reference3"]], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_readme_synopsis_lists_each_subcommands_flags():
    """README's "Command line" block names every subcommand once, with
    exactly the flags ``_COMMANDS`` gives it and FILE where it takes a file,
    so a removed or renamed flag cannot live on in the docs."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme.read_text(), re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        prog, command, *words = line.split()
        assert prog == "skewsmooth" and command not in synopsis
        synopsis[command] = {w.strip("[]") for w in words
                             if w.strip("[]").startswith("--") or w == "FILE"}
    assert synopsis == {
        name: {"FILE" if flag == "file" else flag for flag, _ in arguments}
        for name, (_, _, arguments) in _COMMANDS.items()}
