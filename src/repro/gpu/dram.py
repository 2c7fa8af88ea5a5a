"""HBM2-style memory controllers behind the L2 slices.

Each controller owns a fixed group of L2 slices (Table 1: 48 slices over
24 MCs) and serves their miss traffic with a banked open-row timing model
built from the :class:`~repro.config.DramTiming` parameters.  The model is
deliberately coarse — the covert channel operates out of the L2, and DRAM
matters only as the *noise source* the paper discusses in Section 5 (a
third kernel thrashing the L2 pushes channel traffic to main memory and
destroys the channel).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..config import DramTiming
from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import DRAM_COMPLETE, DRAM_ISSUE
from .caches import SetAssociativeCache  # noqa: F401  (re-export convenience)


class MemoryController(Component):
    """FIFO-scheduled controller with per-bank open rows.

    Requests arrive via :meth:`enqueue` as ``(address, is_write, token)``;
    when the access completes, ``on_complete(token, cycle)`` fires (the L2
    slice uses it to fill the line and release the waiting transaction).
    """

    #: Bytes per DRAM row (page) for row-hit accounting.
    ROW_BYTES = 2048
    #: Banks per controller.
    NUM_BANKS = 8
    #: Data-burst cycles per access on top of the row timing.
    BURST_CYCLES = 4

    def __init__(
        self,
        name: str,
        timing: DramTiming,
        on_complete: Callable[[object, int], None],
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self._requests_key = f"{name}.requests"
        self._row_hits_key = f"{name}.row_hits"
        self._row_misses_key = f"{name}.row_misses"
        self.timing = timing
        self.on_complete = on_complete
        self._counters = None if stats is None else stats.counters
        self._queue: Deque[Tuple[int, bool, object]] = deque()
        self._open_row: Dict[int, int] = {}
        self._bank_ready: Dict[int, int] = {}
        self._in_flight: List[Tuple[int, object, int]] = []
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0

    def attach_telemetry(self, hub) -> None:
        """Opt this controller into issue/complete event tracing."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)

    def enqueue(self, address: int, is_write: bool, token: object) -> None:
        self._queue.append((address, is_write, token))
        self.wake()
        if self._counters is not None:
            self._counters[self._requests_key] += 1

    def pending(self) -> int:
        return len(self._queue) + len(self._in_flight)

    def tick(self, cycle: int) -> None:
        """Complete and start accesses, then write the park horizon.

        The controller parks until its next in-flight completion, or
        until the bank of a queued head frees; with an empty queue and
        nothing in flight it is purely reactive (:meth:`enqueue` wakes
        it).  A queued head whose bank is ready keeps it busy.
        """
        # Complete finished accesses.
        if self._in_flight:
            still = [
                entry for entry in self._in_flight if entry[0] > cycle
            ]
            for ready, token, address in self._in_flight:
                if ready <= cycle:
                    if self._tracer is not None:
                        self._tracer.emit(cycle, DRAM_COMPLETE, self._tl_id,
                                          address)
                    self.on_complete(token, cycle)
            self._in_flight = still
        # Start new accesses on ready banks (FIFO, one start per cycle).
        queue = self._queue
        if queue:
            self._start(cycle, *queue[0])
        wake = FOREVER
        for ready, _, _ in self._in_flight:
            if ready < wake:
                wake = ready
        if queue:
            bank = (queue[0][0] // self.ROW_BYTES) % self.NUM_BANKS
            bank_ready = self._bank_ready.get(bank, 0)
            if bank_ready <= cycle:
                wake = None  # the head can start next tick
            elif bank_ready < wake:
                wake = bank_ready
        self._until = wake

    def _start(self, cycle: int, address: int, is_write: bool,
               token: object) -> None:
        """Start the queued head access if its bank is ready."""
        row = address // self.ROW_BYTES
        bank = row % self.NUM_BANKS
        if self._bank_ready.get(bank, 0) > cycle:
            return
        timing = self.timing
        open_row = self._open_row.get(bank)
        if open_row == row:
            access = timing.row_hit_latency
            if self._counters is not None:
                self._counters[self._row_hits_key] += 1
        elif open_row is None:
            access = timing.t_rcd + timing.t_cl
        else:
            access = timing.row_miss_latency
            if self._counters is not None:
                self._counters[self._row_misses_key] += 1
        latency = access + self.BURST_CYCLES + timing.t_overhead
        self._queue.popleft()
        self._open_row[bank] = row
        self._bank_ready[bank] = cycle + latency
        self._in_flight.append((cycle + latency, token, address))
        if self._tracer is not None:
            self._tracer.emit(cycle, DRAM_ISSUE, self._tl_id, address)

    def state_digest(self):
        """Queue/bank/in-flight state (lockstep oracle).

        Tokens are ``(l2_slice, packet)`` pairs from the L2; only the
        packet half is comparable across devices, which is enough — the
        slice is implied by the address.
        """

        def token_sig(token):
            packet = token[1] if isinstance(token, tuple) else None
            return None if packet is None else packet.signature()

        return (
            tuple(
                (address, is_write, token_sig(token))
                for address, is_write, token in self._queue
            ),
            tuple(sorted(self._open_row.items())),
            tuple(sorted(self._bank_ready.items())),
            tuple(
                sorted(
                    (ready, address, token_sig(token))
                    for ready, token, address in self._in_flight
                )
            ),
        )

    def reset(self) -> None:
        self._queue.clear()
        self._open_row.clear()
        self._bank_ready.clear()
        self._in_flight.clear()
