"""Correction of host time for the drifting speed of a shared machine.

On the 2-core machine this benchmark was built on, other tenants' load made
the same simulation take from 0.5 to 1.7 times its median host time, in
phases lasting seconds to minutes. Medians of raw host time over 20-second
windows spread by about 40%, and over 45-second windows by over 20%. A fixed
reference computation, timed right next to the measured work, slows down
with it: scaling each measured stretch by the reference time beside it left
a spread of about 2%.

So measured intervals are cut into chunks of about CHUNK_S seconds, with
the reference computation run between chunks, outside the measured time.
Each chunk is scaled by REF_S over the mean reference time before and after
it. The result is host seconds at the reference speed: the speed at which
the reference computation takes REF_S seconds.
"""

from __future__ import annotations

import hashlib
import random
import struct
from time import perf_counter

# Median host time of reference_seconds() on the machine the benchmark was
# built on (2 cores, Python 3.11.7). It fixes the unit, not the result: any
# constant gives comparable numbers from run to run.
REF_S = 0.023
CHUNK_S = 0.1


def reference_seconds() -> float:
    """Host time of a fixed computation of the simulator's kind: tuple-keyed
    dict updates, float formatting, a sort and a SHA-1 over packed values."""
    start = perf_counter()
    rng = random.Random(12345)
    levels: dict[tuple[int, int], float] = {}
    lines = []
    for i in range(5000):
        key = (rng.randrange(100), rng.randrange(100))
        levels[key] = levels.get(key, 0.0) * 0.95 + 20.0
        lines.append(f"PHERO,{i},{key[0]},{key[1]},{levels[key]:.9g}")
    h = hashlib.sha1()
    for (u, v), value in sorted(levels.items()):
        h.update(struct.pack("<iid", u, v, value))
    h.update("\n".join(lines).encode())
    return perf_counter() - start


class CalibratedTimer:
    """Host time of one measured interval at the reference speed."""

    def __init__(self):
        self.seconds = 0.0
        self._ref = reference_seconds()
        self._start = perf_counter()

    def split(self) -> None:
        """Called at points where the measured work may pause; closes the
        chunk once it is CHUNK_S long."""
        if perf_counter() - self._start >= CHUNK_S:
            self.stop()
            self._start = perf_counter()

    def stop(self, end: float | None = None) -> float:
        """Close the last chunk at ``end`` (default now); returns the total."""
        end = perf_counter() if end is None else end
        ref = reference_seconds()
        self.seconds += (end - self._start) * REF_S / ((self._ref + ref) / 2)
        self._ref = ref
        return self.seconds
