"""Measure how fast the host runs Python while a workload runs, so that its
times can be stated at one fixed speed.

On a shared host the same code takes more or less CPU time from moment to
moment, because other tenants share the physical cores.  On the host of the
README's figures every piece of Python tried (exact elimination on
fractions, big-integer fractions, dict and string work) switched every
10-500 ms between a fast state and a state about 1.75 times slower, and the
share of slow time drifted from minute to minute, so that ten runs of one
workload spread by a fifth or more although the program did the same work
in each.

``Sampler`` interrupts the process every ``INTERVAL_S`` seconds of its CPU
time (``SIGPROF``) and times a short fixed computation, ``reference()``, in
the signal handler.  The samples fall evenly over the run, inside jobs and
between them, and their mean is the host's speed over the run.  Every time
the benchmark reports is multiplied by ``factor() = NOMINAL_S / mean``: it
then reads as the CPU time the work takes on a host that runs the reference
in ``NOMINAL_S`` seconds.  ``Sampler.clock`` is the thread's CPU time less
the time spent in the handler, so the samples themselves are not counted in
any job.  The reference is the benchmark's own code and never calls the
program, so a change to the program moves the job times and not the
reference.

Only small standard modules are imported here (``signal``, ``time`` and
``bisect``, which the program's own imports would load in microseconds), so
the sampler can run while the program is imported without taking any of
that import's work out of set-up.
"""

import signal
import time
from bisect import bisect_left, bisect_right

# Mean CPU time of ``reference()`` on the host of the README's figures (a
# shared 2-vCPU x86-64 virtual machine, Intel Xeon, Python 3.11).
NOMINAL_S = 0.00025
INTERVAL_S = 0.005        # process CPU time between two samples
NEAREST = 8               # fewest samples a job's time is scaled by
P = 2**31 - 1


def reference() -> int:
    """Residue and dict arithmetic of a fixed size."""
    acc, table = 1, {}
    for k in range(350):
        acc = (acc * (k + 7) + k) % P
        key = (k % 5, k % 7)
        table[key] = table.get(key, 0) + acc
    return len(table)


class Sampler:
    def __init__(self):
        self.samples: list = []   # (clock(), CPU seconds) of each reference()
        self.spent = 0.0          # CPU seconds spent in the handler

    def _handler(self, signum, frame):
        start = time.thread_time()
        reference()
        self.samples.append((start - self.spent, time.thread_time() - start))
        self.spent += time.thread_time() - start

    def clock(self) -> float:
        """The thread's CPU time, less the time the samples took."""
        return time.thread_time() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def factor(samples) -> float:
    """The number that turns CPU seconds measured while ``samples`` were
    taken into seconds at the nominal speed."""
    return NOMINAL_S * len(samples) / sum(seconds for _, seconds in samples)


def scale(times, samples) -> list:
    """Job times at the nominal speed.  ``times`` are (index, start, seconds,
    ok) on the sampler's clock; each job is scaled by the samples taken while
    it ran, or by the ``NEAREST`` samples nearest to it if it ran through
    fewer."""
    at = [a for a, _ in samples]
    scaled = []
    for idx, start, seconds, ok in times:
        lo, hi = bisect_left(at, start), bisect_right(at, start + seconds)
        if hi - lo < NEAREST:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - NEAREST // 2, len(at) - NEAREST))
            hi = lo + NEAREST
        scaled.append((idx, seconds * factor(samples[lo:hi]), ok))
    return scaled
