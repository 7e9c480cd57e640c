"""Scale measured times to a reference core speed.

On the shared machines this benchmark was tuned on, the speed of a core
swings by up to 2x within seconds and stays slow or fast for seconds to
minutes: the same decompose call took 0.85 s to 1.66 s, with wall time equal
to CPU time and no steal time, so another tenant on the same physical core is
the likely cause. A run-level median of raw wall times then depends on how
much of the run fell into slow phases, which spread the medians of ten runs
by more than 25%.

So every timed call is bracketed by `slice_s()`, a fixed piece of pure-Python
work that does not touch the program under test, and its wall time is scaled
by `scale(before, after)`: the reference slice time over the mean of the two
slices measured next to it. A scaled time reads "seconds on a core that runs
the slice in REF_SLICE_S". It still moves one for one with the program's own
speed, because the slice does not depend on the program.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The fastest a slice ran on the Intel Xeon 2.0 GHz vCPUs the benchmark was
# tuned on; it only fixes the unit, so it never needs re-measuring.
REF_SLICE_S = 0.021
ROUNDS = 80


def slice_s() -> float:
    """Wall time of one fixed slice of work: small tuples, a dict of lists, floats, a sort.

    The cyclic garbage collector is off during the slice, so its time does
    not depend on how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0.0
        for _ in range(ROUNDS):
            points = [(i * 7 % 101, i * 13 % 97) for i in range(400)]
            cells: dict[tuple[int, int], list[int]] = {}
            for k, (x, y) in enumerate(points):
                cells.setdefault((x // 10, y // 10), []).append(k)
            for members in cells.values():
                for k in members:
                    x, y = points[k]
                    acc += (x * 0.5 - y * 0.25) ** 2
            points.sort(key=lambda p: (p[1], p[0]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two slices into reference seconds."""
    return 2 * REF_SLICE_S / (before + after)
