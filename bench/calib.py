"""Host-speed calibration of the benchmark.

Other tenants of a shared host slow whole stretches of a run by up to 1.8x,
for seconds to tens of seconds.  The runner therefore times a fixed
reference next to the program's work, before and after each op, and scales
every timing to the speed at which the reference takes its nominal time:

    scaled = measured * nominal / reference time next to the measurement

The reference time is the lesser of the two around a measurement: a single
reference that another process interrupts reads slow, and the lesser one
skips it, while a slow stretch of the host slows both.

On a shared host the cost of launching a process drifts apart from that of
computing, so there are two references, each made like the time it scales:

- `task_s`: a task that mixes what kgroth computes with: small tuples as
  dict keys, sorting, Fraction arithmetic and short-lived objects.  It
  scales computing: the verify-suite ops (run in the pass process, next to
  the ops), and the part of a CLI request or a set-up spent running Python
  code, from the child's first statement on, import included (run in the
  runner, between requests).
- `spawn_s`: starting and reaping a bare Python interpreter.  It scales the
  rest of a CLI request or a set-up: starting the interpreter, ending the
  process and checking the output.

Neither reference imports kgroth, so a change to the program moves the
scaled times and a change of host speed does not.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Nominal times of the references: about their times on an unloaded 2-CPU
# x86-64 host running Python 3.11.
NOMINAL_TASK_S = 0.010
NOMINAL_SPAWN_S = 0.012

SPAWN_CMD = (sys.executable, "-S", "-c", "pass")


def reference_task() -> Fraction:
    counts: dict[tuple, int] = {}
    acc = Fraction(0)
    for i in range(8000):
        key = tuple(sorted((i % 9, i % 4, i % 6, 1)))
        counts[key] = counts.get(key, 0) + 1
        if i % 4 == 0:
            acc += Fraction(i % 17, i % 19 + 1)
    pairs = list(counts.items()) * 20
    pairs.sort()
    return acc


def task_s() -> float:
    """Wall time of one reference task in this process, in seconds."""
    t0 = time.perf_counter_ns()
    reference_task()
    return (time.perf_counter_ns() - t0) / 1e9


def spawn_s() -> float:
    """Wall time to start and reap a bare interpreter, in seconds."""
    t0 = time.perf_counter_ns()
    subprocess.run(SPAWN_CMD, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=60)
    return (time.perf_counter_ns() - t0) / 1e9


def scale(before_s: float, after_s: float, nominal_s: float) -> float:
    """Factor that turns a time measured between two references into nominal time."""
    return nominal_s / min(before_s, after_s)
