"""Machine-speed calibration for virtual machines whose cores are shared.

On a 2-vCPU virtual machine (Intel Xeon) shared with other tenants, core
speed drifts by up to 2x over tens of seconds: a fixed Fraction loop took
7 ms in one 15 s window and 12 ms in the next, with no steal time
reported. No statistic taken inside a 30 s run removes a slow phase that
covers the whole run, so every timed unit of work is bracketed by a fixed
calibration loop, timed in CPU time, and its time is rescaled to a
reference speed:

    calibrated = time * KERNEL_REFERENCE_S / mean(kernel time before, kernel time after)

The loop is the benchmark's own code, not the package's, so a change to
the package cannot move it. Raw figures are reported alongside.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from fractions import Fraction

# Time of one kernel on a core of the machine the bounds were set on, in a
# quiet phase; calibrated times are in seconds at that speed.
KERNEL_REFERENCE_S = 0.0016


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 3) * Fraction(3, i + 1)
    return s


def kernel_time(reps: int) -> float:
    """Mean CPU time of one kernel over `reps` runs.

    CPU time, not wall time, so that a reading is not inflated when the
    hypervisor takes the core away; see `steal_seconds`.
    """
    t0 = time.thread_time()
    for _ in range(reps):
        kernel()
    return (time.thread_time() - t0) / reps


def steal_seconds() -> float:
    """Time, summed over all CPUs, that the hypervisor ran something
    else while a CPU had work to do (the `steal` column of /proc/stat).

    Read only; 0 where the counter is not available.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _helper(conn) -> None:
    while (reps := conn.recv()) is not None:
        conn.send(kernel_time(reps))


class Calibrator:
    """Reads the kernel time on `procs` cores at once, for units that use them all.

    Helpers are plain processes on pipes rather than a pool, so the
    benchmark process has no extra thread when the package forks its own
    workers.
    """

    def __init__(self, procs: int):
        context = multiprocessing.get_context("spawn")
        self.helpers = []
        for _ in range(procs - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=_helper, args=(theirs,), daemon=True)
            process.start()
            self.helpers.append((process, ours))

    def read(self, reps: int) -> float:
        """Mean kernel time over the cores, run concurrently."""
        for _, conn in self.helpers:
            conn.send(reps)
        times = [kernel_time(reps)] + [conn.recv() for _, conn in self.helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for process, conn in self.helpers:
            conn.send(None)
            process.join(timeout=10)
