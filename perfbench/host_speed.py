"""Host-speed reference for the gated time metrics.

The benchmark host is a shared virtual machine whose speed flips
between a fast and a slow state every few seconds, and sometimes stays
in one for minutes: the same simulator operation takes 1.3 s in one
stretch and 2.0 s in the next, in process CPU time as well as wall
time.  A run therefore also times :func:`reference_kernel` -- fixed
pure-Python work that no change to the program can touch -- three times
before each operation, and reports the gated times scaled to the
*nominal host*, on which the kernel takes :data:`NOMINAL_S`::

    scaled = raw * NOMINAL_S / mean(kernel seconds over the run)

The mean, not the median, of the kernel samples: it weighs the fast and
slow states as the operations themselves experience them.  A program
that gets 10% slower still reads 10% slower; a host that gets slower
reads nearly the same.  The raw times are printed beside the scaled
ones.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: Reference-kernel seconds on the nominal host (CPython 3.11 on one
#: 2.1 GHz Intel Xeon vCPU, between its fast and its slow state).
NOMINAL_S = 0.040


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: Optional["_Node"]) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def reference_kernel(n: int = 20000) -> int:
    """Objects, a dict and a heap: the same kind of work as the simulator."""
    rng = random.Random(1)
    table: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    head: Optional[_Node] = None
    acc = 0
    for i in range(n):
        key = rng.randrange(4096)
        head = _Node(key, i, head)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    while head is not None:
        acc += head.value & 7
        head = head.next
    return acc


class HostSpeed:
    """Reference-kernel timings collected through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Factor from raw host seconds to nominal-host seconds."""
        return NOMINAL_S / self.kernel_s
