"""A fixed reference kernel that measures how fast the machine runs right now.

The machine's speed drifts by up to a factor of two over minutes (see
README.md), and the drift moves every workload alike. `sample(seconds)`
runs a kernel shaped like twdeg's hot loops: permutation tuples composed
element by element and looked up in a dict, as `GroupTable.mul` does.
The benchmark samples it in its own process between commands and rescales
each round's wall time to the speed REF_RATE, so that the end-to-end times
follow the program and not the machine. The kernel never imports twdeg, so
a change to the program leaves it unmoved.
"""

from __future__ import annotations

import random
import time

REF_RATE = 2500.0  # kernel chunks per second that define one reference second

_rng = random.Random(1)
_PERMS = [tuple(_rng.sample(range(12), 12)) for _ in range(3000)]
_TABLE = {p: i for i, p in enumerate(_PERMS)}


def _chunk() -> None:
    for j in range(200):
        a = _PERMS[j]
        b = _PERMS[-j]
        _TABLE.get(tuple(a[x] for x in b))
        _TABLE.get(a)


def sample(seconds: float) -> tuple[int, float]:
    """(chunks done, seconds taken) by running the kernel for about `seconds`."""
    start = time.monotonic()
    end = start + seconds
    chunks = 0
    while True:
        for _ in range(5):
            _chunk()
        chunks += 5
        now = time.monotonic()
        if now >= end:
            return chunks, now - start
