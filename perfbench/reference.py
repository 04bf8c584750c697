"""Reference work that measures how fast the host runs, beside each operation.

The benchmark's host is shared: over minutes, the same operation's wall time
drifts by a quarter or more while the program stays the same. The times in
BENCHMARK.json are therefore rescaled to a fixed host speed:

    figure = raw figure x NOMINAL / typical reference time

measured in the same run. The references run outside the timed operations
and never touch the repository's code, so a change to the program moves the
figures while host drift cancels. The raw times are reported beside them.

- In-process operations are paired with a fixed pure-Python loop in the
  same process, run between operations. Each operation is matched with the
  loops on both sides of it, and the typical time is a trimmed mean over
  operations, not a median, because loop times can cluster in two modes
  and a median jumps between them.
- Each cold ``liftwing`` child is paired with a cold reference interpreter
  that imports liftwing's third-party dependencies, numpy and
  ``scipy.optimize``, timed whole, as the child is. A cold invocation is
  mostly that kind of work: starting an interpreter, running modules and
  loading extension libraries. A pure-Python loop or a standard-library
  import tracked its drift worse.
- Each fresh set-up worker is paired with the same reference interpreter,
  run right before or after it in alternating order, and timed over the
  import alone, as the worker times its set-up. The set-up figure is
  NOMINAL x the median over pairs of set-up time / reference time.

The reference imports installed packages only, so a program that stops
importing scipy, or imports it lazily, moves the figures by what it saves.
The NOMINAL constants are the references' typical times on the 2-core host
the benchmark was written on; they only scale the figures.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

LOOP_NOMINAL_S = 0.0016
COLD_NOMINAL_S = 0.75
SETUP_NOMINAL_S = 0.65
IMPORTS = "import numpy, scipy.optimize, concurrent.futures"
LOOP_SHARE = 0.05  # reference loops per operation: 5% of its wall time


def typical(times: list[float], cut: float = 0.1) -> float:
    """Mean of ``times`` without the lowest and highest ``cut`` share."""
    ordered = sorted(times)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def scale(times: list[float], nominal: float) -> float:
    """Factor that takes a raw time measured beside ``times`` to the nominal speed."""
    return nominal / typical(times)


def bracketed(refs: list[list[float]]) -> float:
    """Typical reference time around the operations of one loop.

    ``refs[i]`` holds the loops run just before operation i and the last list
    those run after the last operation, so operation i lies between
    ``refs[i]`` and ``refs[i + 1]``. Each operation gets the mean of the loops
    on both sides of it; the result is the trimmed mean over operations.
    """
    return typical([statistics.fmean(refs[i] + refs[i + 1]) for i in range(len(refs) - 1)])


def loop() -> float:
    """Wall time of one fixed pure-Python floating-point loop."""
    t = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i) * 1.0001
    return time.perf_counter() - t


def loops_for(wall_s: float) -> list[float]:
    """At least one reference loop, and enough to fill LOOP_SHARE of ``wall_s``."""
    times = [loop()]
    while sum(times) < LOOP_SHARE * wall_s:
        times.append(loop())
    return times


def interpreter(run_child, cwd: Path, env: dict) -> tuple[float, float]:
    """A cold reference interpreter that runs IMPORTS: (its wall s, the imports' s).

    ``run_child`` starts it.
    """
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    rc, wall, _, out, err = run_child([sys.executable, "-c", code], cwd, env)
    if rc != 0:
        raise RuntimeError(f"reference interpreter exited {rc}: {err.strip()[-500:]}")
    return wall, float(out)
