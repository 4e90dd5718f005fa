"""Machine-speed probe: the benchmark's times in reference seconds.

On the shared 2-vCPU host the benchmark was built on, the speed of the
whole machine drifts with load from outside it: the same fixed work took
up to 45% longer in one ten-minute stretch than in the next, on every
workload at once. No amount of repetition inside a 40-second run averages
that out. So every gated time is measured twice over: the program's own
work, and around it a fixed probe that does not touch the program (plain
Python loops, dict inserts and small numpy array arithmetic, the mix the
program's hot paths are made of). A time is reported in *reference
seconds*::

    reference time = measured time * REFERENCE_S / probe time around it

that is, the time the work would take on a machine where the probe takes
:data:`REFERENCE_S`. A change to the program changes the measured time
and not the probe, so it shows in full; a slow stretch of the host slows
both and cancels. The measured (raw) times are printed beside them.
"""

from __future__ import annotations

import time

#: Probe time on the build machine at its usual speed [s]; it only fixes
#: the unit, so reference times read close to wall times.
REFERENCE_S = 0.030


def probe_s() -> float:
    """Run the fixed probe once; returns its duration [s]."""
    import numpy as np

    start = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(60_000):
            total += i * i % 7
        values = np.arange(2000, dtype=float)
        for _ in range(300):
            values = np.sqrt(values * values + 1.0)
        table = {}
        for i in range(20_000):
            table[str(i)] = i
    return time.perf_counter() - start


def to_reference(measured_s: float, probes_s: "list[float]") -> float:
    """``measured_s`` in reference seconds, given the probes around it."""
    return measured_s * REFERENCE_S / (sum(probes_s) / len(probes_s))
