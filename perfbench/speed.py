"""The box-speed probe that every end-to-end timing is rescaled by.

A shared machine has spells lasting minutes in which the same code runs up
to 1.5x slower, CPU time included, and a spell can cover a whole run.  A
fixed pure-Python kernel of the benchmark's own (dict updates in a loop)
slows down with the workloads: timed before and after every pass, it
tracks the spells well enough that rescaling by it cuts the run-to-run
spread of the timings about threefold (see README.md).  It allocates almost nothing,
so it leaves the peak memory figure alone.

A timing ``t`` taken next to a probe of ``k`` seconds is reported as
``t * REFERENCE_SECONDS / k``: what it would read on a box where the kernel
takes ``REFERENCE_SECONDS``.  The kernel never touches the package, so a
change to the package moves the rescaled figures exactly as it moves the
raw ones.
"""

from __future__ import annotations

import time
from typing import Tuple

#: The kernel's time on the box the figures are rescaled to, about its
#: fastest on a 2-vCPU 2.0 GHz x86-64 virtual machine.
REFERENCE_SECONDS = 0.020


def _kernel() -> int:
    counts: dict = {}
    for i in range(100_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return len(counts)


def probe(reps: int = 3) -> Tuple[float, float]:
    """(wall, cpu) seconds of one kernel run, the fastest of ``reps`` each."""
    wall = cpu = float("inf")
    for _ in range(reps):
        start, start_cpu = time.perf_counter(), time.process_time()
        _kernel()
        wall = min(wall, time.perf_counter() - start)
        cpu = min(cpu, time.process_time() - start_cpu)
    return wall, cpu
