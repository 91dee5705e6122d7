"""Speed probes: times are reported in CPU seconds of a reference-speed machine.

The benchmark's host is shared, and its speed changes by up to 2x in phases
of tens of seconds, as long as a whole run; in slow phases the processes
also lose the CPU in 50 ms slices.  Two things take this out of the metrics:

- Work is timed in CPU seconds (user plus system) of the processes doing
  it, not in wall seconds, so slices in which the CPU is taken away do not
  count.  Every workload runs one single-threaded process at a time, so on
  a quiet machine the two are the same but for file waits; raw wall times
  are printed beside the metrics.
- A fixed probe that never touches sropo, a fresh interpreter that imports
  numpy, is run before the first, after every second and after the last
  timed operation of a pass, and before and after each set-up, untimed
  itself.  Each pass's CPU times are scaled by ``REF_S`` over the mean CPU
  time of that pass's probes, and the set-up times by ``REF_S`` over the
  mean of the set-up probes.  A change to sropo moves only the times being
  scaled; a slow or fast phase of the host moves both and cancels.

The probe's time is bimodal on such a host (two speeds about 1.5x apart), so
probes are averaged, not taken by their median, which would jump between the
two.  ``REF_S`` is the probe's typical CPU time on the machine the baseline
was taken on, so scaled times read close to raw times there.  The run pins
itself and its children to one CPU, so that a probe and the work it scales
share it.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean

REF_S = 0.2


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpu_clock(children: bool) -> float:
    """CPU seconds used so far by this process, or by its ended children."""
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    return time.process_time()


def probe(cwd: Path, env: dict) -> float:
    """CPU seconds of one fresh interpreter that imports numpy."""
    c0 = cpu_clock(True)
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True,
                   timeout=60)
    return cpu_clock(True) - c0


def factor(probes: list[float]) -> float:
    """What CPU times are multiplied by to read in reference seconds."""
    return REF_S / fmean(probes)
