"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the speed of one core drifts by a third or more over
minutes, as other tenants load the host; slowdowns come in bursts and in
longer stretches alike.  Both the minimum and the median of an item's wall
times move with it.  The benchmark therefore times this kernel right after
every item and reports each item's wall time divided by the kernel's time
beside it, scaled by ``REFERENCE_S``: seconds on a machine on which the
kernel takes ``REFERENCE_S``.

The kernel does the kinds of work solk does, in plain Python and
independent of solk, so a change to solk cannot change it: multiplying and
dividing bignums, products of small integer matrices held as lists, and
attribute access and gcds on small objects.  Tried against each workload
on a loaded machine, this mix tracked the workloads' drift better than
kernels built on tuple-keyed dicts and sets, whose allocations also make
the garbage collector's cost depend on what the workload left alive.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

# A unit conversion, not a measurement: any fixed value works, because
# parent and change are compared on the same machine.  2 ms is about what
# the kernel takes on a 2-vCPU Xeon VM (Python 3.11) under typical load.
REFERENCE_S = 0.002

_N = 14


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def kernel() -> int:
    x, y, acc = 3**300, 7**280, 0
    for i in range(400):
        acc += x * y
        x += i
        y = (y * 3) // 2 + 1
    a = [[(i * j + 3) % 7 - 3 for j in range(_N)] for i in range(_N)]
    product = [[sum(a[i][t] * a[t][j] for t in range(_N)) for j in range(_N)] for i in range(_N)]
    pairs = [_Pair(i, i * 7 + 1) for i in range(1500)]
    return acc.bit_length() + product[0][0] + sum(gcd(p.a * 1000003, p.b) for p in pairs)


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
