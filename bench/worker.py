"""One workload in a fresh process: set-up, the timed closed loop, results.

    python3 worker.py probe SRC PRIMES
    python3 worker.py run SRC PRIMES MANIFEST SECONDS TRACE OUT

``probe`` measures set-up only and prints it.  ``run`` measures set-up, then
runs whole rounds of the manifest's jobs, one caller, each job after the
previous one ends, until SECONDS have passed; it writes timings and every
distinct output to OUT.  Outputs are checked later, by another process.

Set-up is the import of skewsmooth and the program-side preparation before
the first timed job (building the coefficient fields PRIMES, a comma-separated
list, which the library jobs use; CLI jobs build theirs from each file).  It
is measured before the benchmark imports anything but its sampler, so
modules skewsmooth shares with the benchmark are not counted as already
loaded.

Times are this thread's CPU time (``time.thread_time``).  The program is
single-threaded and CPU-bound, so that is the wall time it takes on a CPU of
its own; the wall time, which on a shared host also holds the time other
tenants held the CPU, is recorded beside it.  From the start of set-up to
the end of the timed phase, ``calibrate.Sampler`` times its reference
computation every few milliseconds; times are taken with its clock, which
leaves the samples out.  The samples are written out raw, those taken during
set-up apart from the rest; ``run.py`` scales the times by them.
"""

import sys
import time

from calibrate import Sampler


def setup(src: str, primes, clock):
    """Import the program from SRC and build its fields; returns the modules
    the jobs call, the fields by name, and the seconds this took."""
    start = clock()
    sys.path.insert(0, src)
    import skewsmooth
    from skewsmooth import cli
    from skewsmooth.algebra import Presentation
    from skewsmooth.diffusion import (DiffusionPresentation, DiffusionType,
                                      encode_presentation)
    from skewsmooth.scalars import QQ, PrimeField
    fields = {"Q": QQ}
    for p in primes:
        fields[f"Fp:{p}"] = PrimeField(p)
    elapsed = clock() - start
    if not skewsmooth.__file__.startswith(src):
        raise SystemExit(f"skewsmooth was imported from {skewsmooth.__file__}, not {src}")
    lib = {"cli": cli, "Presentation": Presentation, "DiffusionPresentation":
           DiffusionPresentation, "DiffusionType": DiffusionType,
           "encode_presentation": encode_presentation}
    return lib, fields, elapsed


def main(argv) -> int:
    mode, src, primes = argv[0], argv[1], [int(p) for p in argv[2].split(",") if p]
    sampler = Sampler()
    sampler.start()
    try:
        return _measure(sampler, mode, src, primes, argv[3:])
    finally:
        sampler.stop()


def _measure(sampler, mode, src, primes, rest) -> int:
    clock = sampler.clock
    lib, fields, setup_s = setup(src, primes, clock)
    setup_samples = list(sampler.samples)

    import json
    import resource

    from jobs import build_jobs

    if mode == "probe":
        print(json.dumps({"setup_s": setup_s, "setup_samples": setup_samples}))
        return 0
    manifest_path, seconds, trace, out_path = rest[0], float(rest[1]), rest[2] == "1", rest[3]

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    jobs = build_jobs(manifest, lib, fields)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(clock)
        tracer.install()

    wall_clock = time.perf_counter
    times = []          # (job index, start, CPU seconds, ok)
    first_outputs = [None] * len(jobs)
    extra_outputs = []  # later outputs that differ from the job's first one
    rounds = 0
    first_sample = len(sampler.samples)
    phase_start, wall_start = clock(), wall_clock()
    while True:
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = idx
            t0 = clock()
            try:
                output = ("ok", job())
            except Exception as exc:  # recorded as a failed job, then checked
                output = ("error", type(exc).__name__, str(exc))
            t1 = clock()
            ok = output[0] == "ok" and job.succeeded(output[1])
            times.append((idx, t0, t1 - t0, ok))
            if rounds == 0:
                first_outputs[idx] = output
            elif output != first_outputs[idx]:
                extra_outputs.append((idx, output))
        rounds += 1
        if wall_clock() - wall_start >= seconds:
            break
    cpu, wall = clock() - phase_start, wall_clock() - wall_start
    samples = sampler.samples[first_sample:]
    sampler.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s, "setup_samples": setup_samples, "samples": samples,
        "cpu_s": cpu, "wall_s": wall, "rounds": rounds,
        "jobs_per_round": len(jobs),
        "peak_rss_kb": peak_rss_kb, "times": times,
        "outputs": [jobs[i].export(out) for i, out in enumerate(first_outputs)],
        "extra_outputs": [[i, jobs[i].export(out)] for i, out in extra_outputs],
    }
    if tracer is not None:
        attempted = len(times)
        result["per_layer"] = tracer.metrics(attempted)
        result["layer_self_ms"] = tracer.layer_self_ms(attempted)
        spans_path = out_path[:-len(".json")] + "-spans.jsonl"
        tracer.write_spans(spans_path)
        result["spans"] = spans_path
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
