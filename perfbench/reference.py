"""The reference probe: fixed pure-Python work that sets the unit of time.

The host this benchmark was built on drifts in speed by up to a factor of
two, in spells of seconds to minutes, and a workload's wall time drifts with
it.  ``run.py`` therefore stops each workload child every few seconds, runs
this probe while the child is stopped, and reports the workload's running
time as a multiple of the probe's time around each slice.  The probe does
the kind of work ``braidhooks`` does (build tuples, hash them into dicts
and sets, sort them) on a fixed input that does not involve ``braidhooks``,
so no change to the package moves it.

Run from the repository root to time it: ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import random
import time

ITEMS = 30_000
CHECKSUM = 149_687_142
# The probe's seconds on a quiet CPU of the host the benchmark was built on
# (an Intel Xeon, 2 vCPUs); set-up times are scaled to that speed.
SECONDS = 0.2


def probe(items: int = ITEMS) -> int:
    rng = random.Random(1)
    tuples = [tuple(rng.randrange(30) for _ in range(12)) for _ in range(items)]
    index = {item: i for i, item in enumerate(tuples)}
    seen = set()
    for item in tuples:
        rotated = item[1:] + item[:1]
        if rotated not in index:
            seen.add(rotated)
    tuples.sort()
    return sum(index[item] for item in tuples[::3]) + len(seen)


if __name__ == "__main__":
    for _ in range(5):
        start = time.perf_counter()
        result = probe()
        print(f"{time.perf_counter() - start:.4f} s  checksum {result}")
