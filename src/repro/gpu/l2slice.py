"""Banked L2 cache slices.

Each slice owns an equal share of the physical address space (line
interleaved, Table 1: 48 slices of 96 KB) and is fed by the request-side
crossbar.  A slice accepts one request per cycle, looks it up in its tag
store, and after the pipeline latency injects the reply (read data or
write acknowledgement) into its reply queue.  Misses detour through the
slice's memory controller, which is how a hostile third kernel can turn
the quiet ~220-cycle L2 round trip into noisy DRAM-latency accesses
(Section 5, Impact of Noise).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..config import GpuConfig
from ..noc.buffer import PacketQueue
from ..noc.packet import Packet, READ
from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import L2_HIT, L2_MISS
from .caches import SetAssociativeCache
from .dram import MemoryController


class L2Slice(Component):
    """One L2 slice: tag store + fixed-latency pipeline + MC interface."""

    def __init__(
        self,
        slice_id: int,
        config: GpuConfig,
        request_queue: PacketQueue,
        reply_queues,
        reply_route=None,
        controller: Optional[MemoryController] = None,
        stats: Optional[StatsRegistry] = None,
        write_done: Optional[callable] = None,
    ) -> None:
        self.slice_id = slice_id
        self.name = f"l2s{slice_id}"
        self.config = config
        self.request_queue = request_queue
        request_queue.attach_consumer(self)
        # Virtual output queues: one reply queue per destination GPC, so a
        # reply bound for a congested GPC never head-of-line-blocks
        # replies bound elsewhere (single-FIFO replies would couple every
        # GPC's latency to the most congested reply port).
        if isinstance(reply_queues, PacketQueue):
            reply_queues = [reply_queues]
        self.reply_queues = list(reply_queues)
        self.reply_route = reply_route or (lambda packet: 0)
        self.controller = controller
        self._counters = None if stats is None else stats.counters
        #: Callback for posted-write completion when write_reply_flits == 0
        #: (credits return to the SM without a reply packet).
        self.write_done = write_done
        self.cache = SetAssociativeCache(
            config.l2_slice_bytes,
            config.l2_line_bytes,
            config.l2_ways,
            replacement=config.l2_replacement,
            seed=config.seed + slice_id,
        )
        self._num_slices = config.num_l2_slices
        self._requests_key = f"{self.name}.requests"
        self._misses_key = f"{self.name}.misses"
        #: Slice-interleaving stride for :meth:`_local`.
        self._interleave = config.l2_line_bytes * config.num_l2_slices
        self._line_bytes = config.l2_line_bytes
        # Config constants the tick reads on every request.
        self._ports = config.l2_ports
        self._latency = config.l2_latency
        self._read_reply_flits = config.read_reply_flits
        self._write_reply_flits = config.write_reply_flits
        #: Writes retire at acceptance and get no reply packet.
        self._posted_writes = config.write_reply_flits == 0
        #: FIFO of (ready_cycle, request packet) — hits in pipeline order.
        self._pipeline: Deque[Tuple[int, Packet]] = deque()
        #: Requests waiting on DRAM, completed by the MC callback.
        self._mshr_ready: Deque[Packet] = deque()
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0

    def attach_telemetry(self, hub) -> None:
        """Opt this slice into hit/miss event tracing."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)

    def tick(self, cycle: int) -> None:
        """Complete due requests, accept new ones, write the horizon.

        The pipeline and the DRAM-fill list are drained only when their
        head is due.  The slice then parks until its pipeline head is
        due, or with no timer (``FOREVER``) once the pipeline is empty;
        a queued request or a waiting DRAM fill keeps it busy, and so
        does a due head its reply queue refused (backpressure: retry
        every cycle).  New requests wake the slice through the request
        queue it consumes, DRAM fills through :meth:`dram_complete`.
        """
        pipeline = self._pipeline
        if pipeline and pipeline[0][0] <= cycle:
            complete = self._complete
            # A refused reply stays at the head: retry next cycle.
            while complete(pipeline[0][1], cycle):
                pipeline.popleft()
                if not pipeline or pipeline[0][0] > cycle:
                    break
        filled = self._mshr_ready
        if filled:
            complete = self._complete
            while complete(filled[0], cycle):
                filled.popleft()
                if not filled:
                    break
        requests = self.request_queue._queue
        if requests:
            # Accept up to l2_ports queued requests, one pop each.
            pop = self.request_queue.pop
            counters = self._counters
            tracer = self._tracer
            controller = self.controller
            interleave = self._interleave
            line_bytes = self._line_bytes
            for _ in range(self._ports):
                packet = pop()
                if counters is not None:
                    counters[self._requests_key] += 1
                hit = self.cache.access(
                    (packet.address // interleave) * line_bytes,
                    allocate=True,
                )
                if tracer is not None:
                    tracer.emit(cycle, L2_HIT if hit else L2_MISS,
                                self._tl_id, packet.uid, packet.src_sm)
                if packet.kind != READ and self._posted_writes:
                    # Posted stores retire at L2 acceptance: the write
                    # buffer credit returns now (the store is in the
                    # memory system's domain), regardless of hit or DRAM
                    # detour.
                    if self.write_done is not None:
                        self.write_done(packet, cycle)
                    if not hit and controller is not None:
                        # Miss traffic still reaches DRAM
                        # (write-no-allocate), it just no longer gates
                        # the SM.
                        controller.enqueue(
                            packet.address, True, (self, packet)
                        )
                elif hit or controller is None:
                    pipeline.append((cycle + self._latency, packet))
                else:
                    if counters is not None:
                        counters[self._misses_key] += 1
                    controller.enqueue(
                        packet.address, packet.kind != READ, (self, packet)
                    )
                if not requests:
                    break
        if requests or filled:
            self._until = None
        elif pipeline:
            ready = pipeline[0][0]
            self._until = None if ready <= cycle else ready
        else:
            self._until = FOREVER

    def _complete(self, packet: Packet, cycle: int) -> bool:
        """Finish a request by sending its reply packet.

        Posted writes (``write_reply_flits == 0``) never reach this point
        through the pipeline — they were credited at acceptance — so a
        posted write arriving here is a DRAM write-back completing in the
        background: nothing more to do.
        """
        if packet.kind == READ:
            flits = self._read_reply_flits
        elif self._posted_writes:
            return True
        else:
            flits = self._write_reply_flits
        queue = self.reply_queues[self.reply_route(packet)]
        return queue.push(packet.make_reply(flits, cycle))

    def dram_complete(self, packet: Packet, cycle: int) -> None:
        """MC callback: the line arrived from DRAM; fill and reply."""
        self.cache.install(self._local(packet.address))
        self._mshr_ready.append(packet)
        self.wake()

    def _local(self, address: int) -> int:
        """Slice-local address: drop the slice-interleaving bits.

        Without this, every line a slice owns (global lines ``s``,
        ``s + num_slices``, …) would alias to the same cache set.
        """
        return (address // self._interleave) * self._line_bytes

    # -- preloading ------------------------------------------------------ #
    def preload(self, address: int) -> None:
        """Install a line without timing (experiment setup)."""
        self.cache.install(self._local(address))

    def resident(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently cached."""
        return self.cache.probe(self._local(address))

    def state_digest(self):
        """Pipeline/MSHR/tag-store state plus the slice's queues."""
        return (
            tuple(
                (ready, packet.signature()) for ready, packet in self._pipeline
            ),
            tuple(packet.signature() for packet in self._mshr_ready),
            self.cache.state_digest(),
            self.request_queue.state_digest(),
            tuple(queue.state_digest() for queue in self.reply_queues),
        )

    def reset(self) -> None:
        self.cache.reset()  # invalidate AND drop the replacement rng
        self._pipeline.clear()
        self._mshr_ready.clear()
        # The request queue belongs to this slice (the crossbar clears
        # its own *input* queues); without this, packets queued at reset
        # time would survive into the next run.
        self.request_queue.clear()
