"""A fixed pure-Python load that measures how fast the CPU is right now.

On a shared host the speed one thread gets drifts by half or more within
minutes, and that drift, not the program, sets the spread of raw wall times
between runs.  The benchmark therefore times this load next to its own work
and reports its times scaled to a reference speed::

    scaled = measured * REFERENCE_S / calibration seconds measured alongside

A run in which the load takes exactly ``REFERENCE_S`` reports its wall times
unchanged.  The load does the kind of work that dominates ``qesim``: building
small tuples, sorting, dict updates and JSON formatting.  It imports nothing
from ``qesim``, so a change to the package never changes the yardstick.
"""

from __future__ import annotations

import json
import random
import time

#: Seconds the load takes on the reference CPU (about its median on the
#: 2-core host the benchmark was written on).
REFERENCE_S = 0.15

_ITEMS = 20_000


def load() -> int:
    rng = random.Random(12345)
    rows = [(rng.random(), i, f"d{i % 2}") for i in range(_ITEMS)]
    rows.sort()
    counts: dict[str, int] = {}
    for _, _, name in rows:
        counts[name] = counts.get(name, 0) + 1
    text = "".join(
        json.dumps({"shot": i, "t": t, "det": name}, separators=(",", ":")) + "\n"
        for t, i, name in rows
    )
    return len(text) + len(counts)


def seconds() -> float:
    """Wall seconds of one ``load()``."""
    t0 = time.perf_counter()
    load()
    return time.perf_counter() - t0
