"""``scripts/identity_sweeps.py`` runs end to end, and a count that would
check nothing or exceed its bound ends in one ``error:`` line rather than a
traceback or an unbounded run;
``scripts/catalog_table.py`` reproduces the verdict table of all fifteen
three-generator classes; ``scripts/json_corpus.py`` writes exactly the files
of the checked-in manifest, byte for byte; ``scripts/stage_times.py`` prints
one row per stage, alone and against a second checkout, and refuses a
stage that ``verify-identities`` does not call."""

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from skewsmooth.smoothness import THREE_DIM_CLASSES

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_MANIFEST = ROOT / "tests" / "data" / "json_corpus.sha256"


def run_script(script, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, f"scripts/{script}", *flags],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_identity_sweeps_small_run():
    proc = run_script("identity_sweeps.py",
                      "--ladder-max", "3", "--power-max", "2", "--samples", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("ladder recurrences n <= 3: PASS (12 instances")
    assert "right commutation type1 n <= 2: PASS" in lines[1]
    assert lines[-1].startswith("determinant identities: PASS")


def test_identity_sweeps_rejects_an_empty_ladder():
    proc = run_script("identity_sweeps.py", "--ladder-max", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("flag, value, bound", [
    ("--ladder-max", "151", "between 2 and 150"),
    ("--ladder-max", "1", "between 2 and 150"),
    ("--power-max", "21", "between 1 and 20"),
    ("--power-max", "0", "between 1 and 20"),
    ("--samples", "51", "between 1 and 50"),
    ("--samples", "0", "between 1 and 50")])
def test_identity_sweeps_rejects_counts_outside_the_bounds(flag, value, bound):
    proc = run_script("identity_sweeps.py", flag, value)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be {bound}, not {value}\n"


STAGE_ROWS = ["ladder check", "commutation checks", "determinants", "whole job"]


def _stage_table(stdout, columns):
    rows = [line.split("  ") for line in stdout.splitlines()]
    rows = [[cell.strip() for cell in row if cell.strip()] for row in rows]
    assert rows[0] == ["stage"] + columns
    assert [row[0] for row in rows[1:]] == STAGE_ROWS
    for row in rows[1:]:
        assert len(row) == 1 + len(columns) and all(float(ms) >= 0 for ms in row[1:])


def test_stage_times_smoke():
    proc = run_script("stage_times.py", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    _stage_table(proc.stdout, ["ms/job"])


def _load_stage_times():
    spec = importlib.util.spec_from_file_location("stage_times",
                                                  ROOT / "scripts" / "stage_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_against_a_second_checkout(monkeypatch, capsys):
    stage_times = _load_stage_times()
    monkeypatch.setattr(stage_times, "PROCESSES", 1)
    assert stage_times.main(["--rounds", "1", "--against", str(ROOT)]) == 0
    _stage_table(capsys.readouterr().out, ["against", "this"])


def test_stage_times_rejects_a_stage_the_command_does_not_call(monkeypatch, capsys):
    stage_times = _load_stage_times()
    monkeypatch.setitem(stage_times.STAGES, "right law alone", "verify_right_commutation")
    assert stage_times.main(["--rounds", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: verify-identities does not call right law alone\n"


def test_catalog_table_has_no_mismatch():
    proc = run_script("catalog_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("0 mismatches")
    rows = lines[1:-2]
    assert {row.split()[0] for row in rows} == {label for label, _, _ in THREE_DIM_CLASSES}


def test_json_corpus_matches_the_manifest(tmp_path):
    """The byte-identity contract: every input and output the corpus writes
    has the SHA-256 the manifest records.  A change that alters an output on
    purpose regenerates the manifest, and says why, with

        PYTHONPATH=src python scripts/json_corpus.py OUT
        (cd OUT && find . -type f -printf '%P\\n' | LC_ALL=C sort | xargs sha256sum) \\
            > tests/data/json_corpus.sha256
    """
    proc = run_script("json_corpus.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    expected = {}
    for line in CORPUS_MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    actual = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.rglob("*") if path.is_file()}
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    changed = sorted(name for name in set(expected) & set(actual)
                     if actual[name] != expected[name])
    assert (missing, extra, changed) == ([], [], [])
