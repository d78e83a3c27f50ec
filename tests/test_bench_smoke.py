"""The benchmark harness still runs: one tiny round of every workload, with
every output check, so a change to the program cannot silently break it."""

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
