"""The skewsmooth benchmark: one workload per invocation.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --generate --workload W --seed N   # inputs only
    python3 bench/run.py --smoke [--trace 0|1]              # every workload, tiny

Run from the root of a checkout: the program is imported from ``src/``.
The inputs of workload W are made from seed N under ``bench/out/``, the
workload runs in a fresh worker process (a closed loop with one caller,
whole rounds of the same jobs for S seconds), its outputs are checked here
afterwards, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Times are CPU times
scaled to a fixed host speed by samples the worker takes while it runs
(``calibrate.py``).  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones, from
a run with the tracer installed.  Exit status 0 means the run completed,
whatever the checks found; anything else means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from calibrate import factor, scale  # noqa: E402
from checks import CHECKS  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402

# job_tail_ms: the highest percentile with at least ten jobs beyond it in
# every run, with room for a slower program (screen runs about 7000 jobs,
# rewrite 600, calculus 100 to 130, identities about 70).
TAIL_PERCENTILE = {"screen": 99, "rewrite": 95, "calculus": 80, "identities": 80}
SETUP_PROBES = 7          # extra fresh processes that only set up
DEADLINE_S = 170          # a run that cannot finish by then stops with an error


def _worker(args, deadline):
    """Run worker.py to completion; its stdout, or SystemExit on failure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {timeout} s")
    if done.returncode != 0:
        raise SystemExit(f"worker failed ({done.returncode}):\n{done.stderr.strip()}")
    return done.stdout


def _primes(manifest: dict) -> str:
    """The fields the library workload builds during set-up."""
    if manifest["workload"] != "rewrite":
        return ""
    return ",".join(sorted({job["field"][3:] for job in manifest["jobs"]
                            if job["field"].startswith("Fp:")}))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    deadline = time.monotonic() + DEADLINE_S
    directory = os.path.join(OUT, f"{workload}-s{seed}" + ("" if size == "full" else f"-{size}"))
    manifest = generate(workload, seed, directory, size)
    primes = _primes(manifest)
    setups = []           # set-up CPU seconds at the nominal speed
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = json.loads(_worker(["probe", SRC, primes], deadline))
            setups.append(probe["setup_s"] * factor(probe["setup_samples"]))
    result_path = os.path.join(directory, "result-trace.json" if trace else "result.json")
    _worker(["run", SRC, primes, os.path.join(directory, "manifest.json"), seconds,
             int(trace), result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append(result["setup_s"] * factor(result["setup_samples"]))
    speed = factor(result["samples"])

    outputs = list(enumerate(result["outputs"])) + [tuple(e) for e in result["extra_outputs"]]
    problems = CHECKS[workload](manifest, outputs)
    times = scale(result["times"], result["samples"])
    ok_ms = [t * 1000 for _, t, ok in times if ok]
    attempted, failed = len(times), len(times) - len(ok_ms)
    busy_s = sum(t for _, t, _ in times)
    succeeded = len(ok_ms)
    if succeeded < 2:
        problems.append(f"only {succeeded} successful jobs")
        ok_ms = (ok_ms or [0.0]) * 2
    pct = TAIL_PERCENTILE[workload]
    end_to_end = {
        "jobs_per_s": {"value": succeeded / busy_s, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(ok_ms), "unit": "ms"},
        "job_tail_ms": {"value": statistics.quantiles(ok_ms, n=100, method="inclusive")[pct - 1],
                        "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    summary = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "rounds": result["rounds"], "jobs_per_round": result["jobs_per_round"],
        "tail_percentile": pct, "setup_samples_s": setups, "problems": problems,
        "wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
        "speed_factor": speed, "speed_samples": len(result["samples"]),
        "cpu_jobs_per_s": succeeded / result["cpu_s"],
        "wall_jobs_per_s": succeeded / result["wall_s"],
        "end_to_end": end_to_end,
    }
    if trace:
        summary["per_layer"] = {
            name: {"value": m["value"] * (speed if m["unit"] == "ms" else 1), "unit": m["unit"]}
            for name, m in result["per_layer"].items()}
        summary["layer_self_ms"] = {layer: ms * speed
                                    for layer, ms in result["layer_self_ms"].items()}
        summary["spans"] = result["spans"]
    with open(os.path.join(directory, "summary-trace.json" if trace else "summary.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", action="store_true",
                        help="write the workload's inputs from the seed and stop")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload at a tiny size, with all checks")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewsmooth", "__init__.py")):
        sys.stderr.write(f"error: no skewsmooth sources under {SRC}; run from a checkout\n")
        return 2
    if args.smoke:
        bad = 0
        for workload in WORKLOADS:
            start = time.perf_counter()
            summary = run_workload(workload, args.seed, 0, bool(args.trace), "smoke")
            bad += not summary["correct"]
            print(f"{workload}: correct={summary['correct']} attempted={summary['attempted']} "
                  f"failed={summary['failed']} ({time.perf_counter() - start:.1f} s)")
            for problem in summary["problems"]:
                print(f"  {problem}")
        return 1 if bad else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.generate:
        directory = os.path.join(OUT, f"{args.workload}-s{args.seed}")
        manifest = generate(args.workload, args.seed, directory)
        print(f"{len(manifest['jobs'])} jobs, {len(manifest['files'])} files in {directory}")
        return 0
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in summary["problems"][:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    sys.stderr.write(
        f"{args.workload}: {summary['rounds']} rounds x {summary['jobs_per_round']} jobs, "
        f"jobs_per_s {summary['end_to_end']['jobs_per_s']['value']:.2f} "
        f"(CPU time {summary['cpu_jobs_per_s']:.2f}, speed factor {summary['speed_factor']:.3f}), "
        f"tail = p{summary['tail_percentile']}\n")
    if args.trace:
        layers = ", ".join(f"{k} {v:.2f}" for k, v in
                           sorted(summary["layer_self_ms"].items(), key=lambda kv: -kv[1]))
        sys.stderr.write(f"self ms per job by layer: {layers}\n")
    metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
