"""The speed of the machine right now, measured by a fixed kernel.

On a shared virtual machine the same job can take 1.8 times as long from
one minute to the next, because the host's cores are busy with other
guests.  :func:`calibrate` times a small, fixed map-sort-merge-group pass
written here, independent of the repository's code, so its cost never
changes with the program.  The cyclic garbage collector is off while it
runs, so collections that the program's heap left pending cannot land in
its time.  Timed right before and right after a job, it
tells how fast the machine ran during the job, and :func:`scaled` turns
the job's wall seconds into seconds at :data:`REFERENCE_S`, the kernel's
time on the machine that recorded the README's numbers.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import random
import time
from operator import itemgetter

__all__ = ["REFERENCE_S", "calibrate", "scaled"]

#: The kernel's median time on a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz)
#: in its usual state.  Any constant works for comparing two commits;
#: this one keeps scaled seconds close to that machine's wall seconds.
REFERENCE_S = 0.046

_KEY = itemgetter(0)


def calibrate() -> float:
    """Run the fixed kernel once, with the cyclic GC off; return its wall
    seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    t0 = time.perf_counter()
    rng = random.Random(7)
    records = [
        (rng.randrange(5000), rng.random(), f"/page/{rng.randrange(2000):06d}")
        for _ in range(10_000)
    ]
    decoded = [pickle.loads(pickle.dumps(r)) for r in records]
    pairs = [(r[0], (r[1], r[2])) for r in decoded]
    runs = [sorted(pairs[i : i + 1000], key=_KEY) for i in range(0, len(pairs), 1000)]
    groups: dict[int, list] = {}
    for key, value in heapq.merge(*runs, key=_KEY):
        groups.setdefault(key, []).append(value)
    return time.perf_counter() - t0


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at reference speed, given the kernel's times around it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)
