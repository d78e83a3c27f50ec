"""The benchmark harness still runs: one tiny round of every workload, with
every output check, so a change to the program cannot silently break it."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_smoke(*flags):
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke", *flags], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = {line.split(":", 1)[0]: line for line in proc.stdout.splitlines()
             if not line.startswith(" ")}
    for workload in ("screen", "calculus", "rewrite", "identities"):
        assert "correct=True" in lines.get(workload, ""), proc.stdout


def test_bench_smoke_runs_and_checks_every_workload():
    check_smoke()


def test_traced_bench_smoke_finds_every_wrapped_function():
    # the tracer wraps functions by name and fails when one is gone or renamed
    check_smoke("--trace", "1")


def test_every_traced_function_is_bound_where_the_tracer_wraps_it():
    """What ``Tracer.install`` requires, checked without a benchmark run: each
    wrapped name exists, and every owner binds the one function."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    for name, attr, owners in targets:
        assert all(hasattr(owner, attr) for owner in owners), name
        assert all(getattr(owner, attr) is getattr(owners[0], attr) for owner in owners), name
