"""A fixed reference workload, timed beside the program to gauge the machine's speed.

The machine is shared, and its speed drifts by 20-40% over minutes, far
more than the change a later optimisation has to show.  So every timing
is also given at a reference speed: the wall time, multiplied by
`REFERENCE_S` and divided by the time `reference_work` took next to it.
`reference_work` is the benchmark's own code, not the program's, so a
change to the program moves the scaled time as much as the wall time.
It does what the program spends its time on: pure-Python integer and
bit operations, dict and set lookups, and reads of a table too large
for the first-level cache.
"""

from __future__ import annotations

import gc
import time

# The time `reference_work` took on the machine the README describes, at
# its usual speed; times scaled to the reference speed are in these seconds.
REFERENCE_S = 0.021
SIZE = 320


def reference_work() -> int:
    n = SIZE
    # a multiplication table, as the Cayley table of a group of order n
    table = [[(i ^ (j * 5)) % n for j in range(n)] for i in range(n)]
    # an associativity-style pass of chained lookups
    acc = 0
    for a in range(0, n, 2):
        row = table[a]
        for b in range(n):
            acc += table[row[b]][b]
    # dict and set work over tuples, and GF(2)-style products of ints
    seen: dict[tuple[int, int], int] = {}
    for i in range(20000):
        key = (i & 255, (i * 7) & 127)
        seen[key] = seen.get(key, 0) ^ i
    members = {v for v in seen.values()}
    x = 0x9E3779B97F4A7C15
    for i in range(10000):
        x = ((x << 1) ^ (x >> 3) ^ i) & ((1 << 256) - 1)
        acc += x.bit_count()
    return acc + len(members)


def reference_seconds() -> float:
    """Wall time of `reference_work`, with the cyclic collector off, so that
    the program's heap does not add to it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
