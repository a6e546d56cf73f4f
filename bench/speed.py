"""Where the benchmark's times are taken, and at what speed of the machine.

On a shared host the vCPUs of a small VM change speed under a run: the
same code runs up to 1.3-1.7x slower in one stretch of tens of seconds
than in the next, and one vCPU can be slower than the other at the same
moment.  `run.py` calls `pin_fastest()` before every operation and every
set-up process: it times a short interpreter loop on each allowed CPU,
pins the calling thread (and the processes it starts) to the one that ran
it fastest, and keeps that time in `chosen`.  `run.py` then scales its CPU
times by `factor()` of the loop times kept while they were taken, so that
they read as CPU seconds on the reference box at its usual speed.  The
loop imports nothing from `u1rotor`, so a change to the program moves a
scaled time by exactly as much as the raw one.  With BLAS on one thread,
nothing else of the run competes for the chosen CPU.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_LOOPS = 20_000
PROBE_REPEATS = 3
# At most this many CPUs are probed, so that a large box adds no overhead.
CPUS = sorted(os.sched_getaffinity(0))[:4]
# The winning probe time of every `pin_fastest` call.
chosen: list[float] = []
# The probe's time on the reference box at its usual speed (bench/README.md).
NOMINAL_S = 0.0015


def probe_seconds() -> float:
    """Mean CPU time of ``PROBE_REPEATS`` runs of a short interpreter loop, about 1.5 ms each."""
    start = time.process_time()
    for _ in range(PROBE_REPEATS):
        total = 0
        for i in range(PROBE_LOOPS):
            total += i & 7
    return (time.process_time() - start) / PROBE_REPEATS


def pin_fastest() -> None:
    """Pin the calling thread to the CPU where `probe_seconds` is lowest."""
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((probe_seconds(), cpu))
    seconds, best = min(timings)
    os.sched_setaffinity(0, {best})
    chosen.append(seconds)


def factor(probes: list[float]) -> float:
    """What scales CPU times taken among the winning ``probes`` to the reference box's usual speed."""
    return NOMINAL_S / statistics.median(probes)
