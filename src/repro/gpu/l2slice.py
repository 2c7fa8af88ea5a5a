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
        self.stats = stats
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
        self._drain_pipeline(cycle)
        self._drain_mshr_ready(cycle)
        # Accept new requests (l2_ports per cycle).
        for _ in range(self.config.l2_ports):
            packet = self.request_queue.head()
            if packet is None:
                break
            self.request_queue.pop()
            if self.stats is not None:
                self.stats.incr(self._requests_key)
            hit = self.cache.access(self._local(packet.address), allocate=True)
            if self._tracer is not None:
                self._tracer.emit(cycle, L2_HIT if hit else L2_MISS,
                                  self._tl_id, packet.uid, packet.src_sm)
            posted_write = (
                packet.kind != READ and self.config.write_reply_flits == 0
            )
            if posted_write:
                # Posted stores retire at L2 acceptance: the write buffer
                # credit returns now (the store is in the memory system's
                # domain), regardless of hit or DRAM detour.
                if self.write_done is not None:
                    self.write_done(packet, cycle)
                if not hit and self.controller is not None:
                    # Miss traffic still reaches DRAM (write-no-allocate),
                    # it just no longer gates the SM.
                    self.controller.enqueue(
                        packet.address, True, (self, packet)
                    )
                continue
            if hit or self.controller is None:
                self._pipeline.append((cycle + self.config.l2_latency, packet))
            else:
                if self.stats is not None:
                    self.stats.incr(self._misses_key)
                self.controller.enqueue(
                    packet.address, packet.kind != READ, (self, packet)
                )

    def _drain_pipeline(self, cycle: int) -> None:
        pipeline = self._pipeline
        while pipeline and pipeline[0][0] <= cycle:
            ready, packet = pipeline[0]
            if not self._complete(packet, cycle):
                break  # reply queue backpressure: retry next cycle
            pipeline.popleft()

    def _drain_mshr_ready(self, cycle: int) -> None:
        """Complete requests whose lines arrived from DRAM."""
        ready = self._mshr_ready
        while ready:
            if not self._complete(ready[0], cycle):
                break
            ready.popleft()

    def _complete(self, packet: Packet, cycle: int) -> bool:
        """Finish a request by sending its reply packet.

        Posted writes (``write_reply_flits == 0``) never reach this point
        through the pipeline — they were credited at acceptance — so a
        posted write arriving here is a DRAM write-back completing in the
        background: nothing more to do.
        """
        config = self.config
        if packet.kind == READ:
            flits = config.read_reply_flits
        else:
            flits = config.write_reply_flits
            if flits == 0:
                return True
        queue = self.reply_queues[self.reply_route(packet)]
        return queue.push(packet.make_reply(flits, cycle))

    def dram_complete(self, packet: Packet, cycle: int) -> None:
        """MC callback: the line arrived from DRAM; fill and reply."""
        self.cache.install(self._local(packet.address))
        self._mshr_ready.append(packet)
        self.wake()

    def idle_until(self, cycle: int):
        """Idle when no request is queued and the pipeline has nothing due.

        A nonempty pipeline whose head is already due means the reply
        queue is backpressuring — stay active and retry every cycle.
        New requests wake the slice through the request queue it
        consumes; DRAM fills through :meth:`dram_complete`.
        """
        if self.request_queue or self._mshr_ready:
            return None
        if self._pipeline:
            ready = self._pipeline[0][0]
            return None if ready <= cycle else ready
        return FOREVER

    def _local(self, address: int) -> int:
        """Slice-local address: drop the slice-interleaving bits.

        Without this, every line a slice owns (global lines ``s``,
        ``s + num_slices``, …) would alias to the same cache set.
        """
        line_bytes = self.config.l2_line_bytes
        return (address // self._interleave) * line_bytes

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
        self.cache.reset()  # invalidate AND reseed the replacement rng
        self._pipeline.clear()
        self._mshr_ready.clear()
        # The request queue belongs to this slice (the crossbar clears
        # its own *input* queues); without this, packets queued at reset
        # time would survive into the next run.
        self.request_queue.clear()
