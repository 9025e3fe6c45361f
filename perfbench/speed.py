"""Machine-speed probe used to express times in reference seconds.

The benchmark runs on shared virtual machines whose speed drifts, over
seconds to minutes, for reasons outside the process: on a 2-vCPU VM a
fixed pure-Python loop measured back to back ranged from 70 to 120 ms,
and one n=28 exact solve took 1.5 s in one run and 2.9 s in the next.
Raw wall times of identical passes spread by as much. So the
benchmark runs this fixed probe before and after every op and every
set-up, and scales the measured time of each by

    REFERENCE_S / (mean of the nearest probe times)

(for an op: the two probes before it and the two after it, where they
exist; for a set-up: the probe before and the probe after), which reads
as "seconds on a machine where one probe takes REFERENCE_S".

The probe exercises what limpack spends its time on (list indexing, set
and dict updates over a working set of a few hundred kB) with the
garbage collector off, so the heap a program leaves behind cannot slow
the probe down and flatter the program. The raw wall-clock times stay in
the run record.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.05

_DATA = list(range(50_000))


def probe() -> float:
    """Seconds one fixed round of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: set[int] = set()
        table: dict[int, int] = {}
        acc = 0
        for i in range(80_000):
            v = _DATA[(i * 7919) % 50_000]
            if v not in seen:
                seen.add(v & 4095)
            table[v & 1023] = table.get(v & 1023, 0) + 1
            acc += len(seen)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """Factor from measured seconds to reference seconds given nearby probes."""
    return REFERENCE_S / (sum(probes) / len(probes))
