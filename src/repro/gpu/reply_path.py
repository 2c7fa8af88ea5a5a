"""Reply-subnet distribution from the crossbar back to the SMs.

Table 1 configures two subnets (request + reply).  The request subnet is
built from :class:`~repro.noc.mux.Mux` concentrators (SM -> TPC -> GPC ->
crossbar); this module implements the mirror-image *distribution* side:
each GPC has one reply channel out of the crossbar whose bandwidth
(``gpc_reply_width`` flits/cycle) is shared by all the GPC's TPCs, and each
TPC has a reply channel of ``tpc_reply_width`` flits/cycle feeding its two
SMs.

The GPC reply channel is the bottleneck behind the *GPC covert channel*:
read replies carry whole sectors (4 flits), so ~14 SMs issuing reads
oversubscribe it (Figure 5b) while the same SMs' single-flit read requests
never stress the request path.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..config import GpuConfig
from ..noc.buffer import PacketQueue
from ..noc.packet import Packet
from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import REPLY_DELIVER


class GpcReplyDistributor(Component):
    """Demultiplexes one GPC reply channel onto its per-TPC channels.

    ``deliver`` hands completed packets to the destination SM (ejection is
    modelled as instantaneous once a packet has crossed its TPC reply
    channel).
    """

    def __init__(
        self,
        gpc_id: int,
        config: GpuConfig,
        input_queue: PacketQueue,
        member_tpcs: List[int],
        deliver: Callable[[Packet, int], None],
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.gpc_id = gpc_id
        self.name = f"gpc{gpc_id}.reply"
        self.config = config
        self.input_queue = input_queue
        input_queue.attach_consumer(self)
        self.deliver = deliver
        self._counters = None if stats is None else stats.counters
        self._member_tpcs = set(member_tpcs)
        self._packets_key = f"{self.name}.packets"
        self._sms_per_tpc = config.sms_per_tpc
        #: Flits of the head packet already moved this + previous cycles.
        self._progress = 0
        self._width = config.gpc_reply_width
        #: Flits per cycle of each TPC reply channel, or None when it is
        #: at least the GPC channel's width: a TPC then cannot take more
        #: than the whole channel moves, so its budget never binds.
        self._tpc_width = (
            config.tpc_reply_width
            if config.tpc_reply_width < config.gpc_reply_width else None
        )
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0
        self._tl_link = None

    def attach_telemetry(self, hub) -> None:
        """Opt this distributor into tracing and a reply-link series."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)
        self._tl_link = hub.timeline.register_link(
            self.name, self.config.gpc_reply_width
        )

    def tick(self, cycle: int) -> None:
        """Move up to ``gpc_reply_width`` flits; park when the queue empties.

        The distributor is purely reactive: it parks (``FOREVER``)
        exactly when its reply queue is empty, and the queue's next
        arrival wakes it.
        """
        packets = self.input_queue._queue
        if not packets:
            self._until = FOREVER
            return
        width = self._width
        budget = width
        progress = self._progress
        tpc_width = self._tpc_width
        tpc_budget = None if tpc_width is None else {}
        pop = self.input_queue.pop
        while True:
            packet = packets[0]
            tpc = packet.src_sm // self._sms_per_tpc
            if tpc not in self._member_tpcs:
                raise RuntimeError(
                    f"{self.name}: reply for SM {packet.src_sm} (TPC {tpc}) "
                    f"routed to wrong GPC"
                )
            step = packet.flits - progress
            if step > budget:
                step = budget
            if tpc_budget is not None:
                remaining = tpc_budget.get(tpc, tpc_width)
                if remaining <= 0:
                    # Head-of-line: this TPC's channel is saturated.
                    break
                if step > remaining:
                    step = remaining
                tpc_budget[tpc] = remaining - step
            budget -= step
            progress += step
            if progress < packet.flits:
                break  # out of GPC (or TPC) budget mid-packet
            pop()
            progress = 0
            if self._tracer is not None:
                self._tracer.emit(cycle, REPLY_DELIVER, self._tl_id,
                                  packet.uid, packet.src_sm)
            self.deliver(packet, cycle)
            if self._counters is not None:
                self._counters[self._packets_key] += 1
            if not budget or not packets:
                break
        self._progress = progress
        self._until = None if packets else FOREVER
        if self._tl_link is not None and budget < width:
            self._tl_link.add(cycle, width - budget)

    def state_digest(self):
        """Head progress plus the reply queue feeding this GPC."""
        return (self._progress, self.input_queue.state_digest())

    def reset(self) -> None:
        self._progress = 0
        self.input_queue.clear()
        if self._tl_link is not None:
            self._tl_link.reset()
