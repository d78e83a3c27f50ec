"""The benchmark harness still runs: one tiny round of every workload, with
every output check, so a change to the program cannot silently break it."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_runs_and_checks_every_workload():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = {line.split(":", 1)[0]: line for line in proc.stdout.splitlines()
             if not line.startswith(" ")}
    for workload in ("screen", "calculus", "rewrite", "identities"):
        assert "correct=True" in lines.get(workload, ""), proc.stdout
