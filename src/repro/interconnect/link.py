"""Inter-GPU link components: the serializing pipe and the ingress shim.

A directed link is modeled as a TX queue on the sending node, an RX
queue on the receiving node, and a :class:`LinkPipe` between them.  The
pipe is where NVLink's two physical costs live:

* **serialization** — a packet of ``F`` flits occupies the link for
  ``ceil(F / width)`` cycles before the next packet may start, so the
  link's flit rate is the shared resource two co-resident kernels
  contend for (the covert channel's medium);
* **latency** — a fixed one-way flight time added after serialization,
  covering the PHY, retimers and (for switch topologies) hub traversal.

Credit flow is end-to-end per hop: the pipe reserves space in the far
RX queue *before* starting serialization, so a congested receiver
back-pressures through TX into the sender's router and ultimately the
issuing SM — the same VCT discipline the on-chip NoC uses.

:class:`FabricIngress` is the landing shim on each device: it drains the
node router's local-delivery queue into the device proper — requests
into the addressed L2 slice's request queue, replies into the device's
reply delivery path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..noc.buffer import PacketQueue
from ..noc.packet import Packet
from ..sim.engine import Component, FOREVER


class LinkPipe(Component):
    """One directed inter-GPU link: serializer plus fixed flight time.

    Parameters
    ----------
    name:
        Trace name, e.g. ``"link0-1"``.
    tx, rx:
        Boundary queues.  The pipe pops ``tx`` and commits into ``rx``:
        it is the TX queue's consumer, woken by every commit, and the RX
        queue's producer (the sole caller of ``rx.reserve``/``rx.commit``),
        so a credit stall parks it until RX pops.
    width:
        Flits accepted per cycle (link bandwidth).
    latency:
        One-way flight cycles added after serialization completes.
    """

    def __init__(
        self,
        name: str,
        tx: PacketQueue,
        rx: PacketQueue,
        width: int,
        latency: int,
    ) -> None:
        self.name = name
        self.tx = tx
        self.rx = rx
        self.width = width
        self.latency = latency
        #: Cycle at which the serializer frees up for the next packet.
        self._busy_until = 0
        #: Packets in flight: ``(arrival_cycle, packet)`` in FIFO order.
        self._in_flight: Deque[Tuple[int, Packet]] = deque()
        #: Link-utilization series (set by :meth:`attach_telemetry`).
        self._tl_link = None
        #: Set on a credit stall (the far RX has no room for the TX
        #: head); the RX queue's next pop clears it and wakes the pipe.
        self._blocked = False
        tx.attach_consumer(self)
        rx.attach_producer(self)

    def attach_telemetry(self, hub) -> None:
        """Opt this link into the hub's per-link utilization series.

        Mirrors :meth:`repro.noc.mux.Mux.attach_telemetry`: flits are
        recorded at serialization start, so the series measures offered
        wire occupancy against ``width`` flits/cycle capacity.  Purely
        observational — simulated behaviour is bit-identical either way.
        """
        self._tl_link = hub.timeline.register_link(self.name, self.width)

    def reserved_demand(self):
        """Yield ``(rx_queue, flits)`` for each in-flight packet.

        The pipe reserves RX space at serialization start and commits at
        arrival, so at every audit point the RX queue's reserved flits
        must be exactly the sum over :attr:`_in_flight` — the fabric-side
        counterpart of the switch conservation contract that
        :class:`repro.validate.invariants.InvariantChecker` audits.
        """
        for _, packet in self._in_flight:
            yield self.rx, packet.flits

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        # Deliver arrivals whose flight time has elapsed.  Space was
        # reserved at serialization start, so commit cannot fail.
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, packet = self._in_flight.popleft()
            self.rx.commit(packet)
        # Start serializing the next packet once the wire is free and
        # the far buffer has credits.
        if cycle < self._busy_until:
            return
        head = self.tx.head()
        if head is None:
            return
        if not self.rx.can_reserve(head.flits):
            self._blocked = True  # credit stall; the next RX pop wakes us
            return
        self.rx.reserve(head.flits)
        self.tx.pop()
        if self._tl_link is not None:
            self._tl_link.add(cycle, head.flits)
        serialize = -(-head.flits // self.width)  # ceil division
        self._busy_until = cycle + serialize
        self._in_flight.append((cycle + serialize + self.latency, head))

    def idle_until(self, cycle: int) -> Optional[int]:
        nxt = FOREVER
        if self._in_flight:
            nxt = self._in_flight[0][0]
        if self.tx:
            if cycle < self._busy_until:
                nxt = min(nxt, self._busy_until)
            elif self.rx.can_reserve(self.tx.head().flits):
                return None  # can start a packet right now
            # else: credit-stalled (_blocked); woken by the next RX pop
        if nxt == FOREVER:
            return FOREVER
        return nxt if nxt > cycle else None

    def reset(self) -> None:
        self._busy_until = 0
        self._blocked = False
        self._in_flight.clear()
        self.tx.clear()
        self.rx.clear()

    def state_digest(self):
        return (
            self._busy_until,
            tuple((arrive, packet.signature()) for arrive, packet in self._in_flight),
            self.tx.state_digest(),
            self.rx.state_digest(),
        )


class FabricIngress(Component):
    """Drains a node router's local-delivery queue into its device.

    Requests (remote reads/writes addressed to this device) are pushed
    into the addressed L2 slice's request queue, from which point they
    are indistinguishable from local traffic.  Replies (completions of
    this device's own remote accesses) go straight to the device's
    reply-delivery path.  On request-queue back-pressure the shim simply
    holds the head — the delivery queue then back-pressures the router.
    """

    def __init__(self, name: str, queue: PacketQueue, device) -> None:
        self.name = name
        self.queue = queue
        self.device = device
        queue.attach_consumer(self)

    def tick(self, cycle: int) -> None:
        queue = self.queue
        device = self.device
        while queue:
            head = queue.head()
            if head.is_reply:
                queue.pop()
                device._deliver_reply(head, cycle)
                continue
            if not device.l2_request_queues[head.slice_id].push(head):
                break  # L2 slice full; retry while our queue is nonempty
            queue.pop()

    def idle_until(self, cycle: int) -> Optional[int]:
        # Busy-retry while holding packets (covers L2 back-pressure
        # without registering as the L2 request queue's producer,
        # which is the request crossbar).
        return None if self.queue else FOREVER

    def reset(self) -> None:
        self.queue.clear()

    def state_digest(self):
        return (self.queue.state_digest(),)
