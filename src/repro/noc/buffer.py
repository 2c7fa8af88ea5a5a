"""Bounded packet queues with flit-level capacity accounting.

Every channel endpoint in the NoC is a :class:`PacketQueue`.  Capacity is
counted in flits (not packets) so that big write/reply packets consume more
buffering than single-flit read requests, and upstream muxes use
reserve/commit semantics: space for a whole packet is reserved when its
first flit is transmitted (virtual cut-through), the packet object is
enqueued when its last flit arrives, and the space is released on pop.

The queue is also what wakes the components around it, which register
with it when they are built.  Its one consumer (a switch, an L2 slice, a
reply distributor, a link pipe or a fabric ingress shim) is woken by
every ``commit``.  A consuming switch (a :class:`LiveInputs` subclass:
:class:`~repro.noc.mux.Mux` or :class:`~repro.noc.crossbar.Crossbar`)
registers with its input port and is also told whenever the head packet
changes — empty to nonempty on ``commit``, a new head or empty on
``pop``, empty on ``clear`` — so it keeps its nonempty input ports as a
live list instead of rescanning every input on every tick.

Its producers are the components that fill it (a switch, an SM, a link
pipe; every SM of a device fills the shared fabric egress queue).  A
producer that found no room for any of its packets sets its ``_blocked``
flag and parks; the next ``pop`` — the only event that frees space —
clears the flag and wakes it.  An unblocked producer is never woken.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, List, Optional

from .packet import Packet


class PacketQueue:
    """FIFO of packets with a flit-capacity bound."""

    __slots__ = ("name", "capacity_flits", "_queue", "_used_flits",
                 "_reserved_flits", "meter", "_consumer", "_switch",
                 "_port", "_producer", "_more_producers")

    def __init__(self, name: str, capacity_flits: int) -> None:
        if capacity_flits <= 0:
            raise ValueError("capacity_flits must be positive")
        self.name = name
        self.capacity_flits = capacity_flits
        self._queue: Deque[Packet] = deque()
        self._used_flits = 0
        self._reserved_flits = 0
        #: Optional telemetry occupancy meter (``QueueMeter``); stays
        #: ``None`` unless the device enables telemetry.
        self.meter = None
        #: The component this queue feeds (see :meth:`attach_consumer`);
        #: ``None`` for queues nothing drains.
        self._consumer = None
        #: The consumer again if it is a switch, and its input port there.
        self._switch: Optional["LiveInputs"] = None
        self._port = -1
        #: The components that fill this queue (see :meth:`attach_producer`):
        #: the first, which ``pop`` checks without a loop (most queues
        #: have one), then the others in registration order.
        self._producer = None
        self._more_producers: tuple = ()

    def attach_consumer(self, component, port: Optional[int] = None) -> None:
        """Make ``component`` the one consumer every ``commit`` wakes.

        A switch passes its input ``port`` and is also told about head
        changes.  A second registration would leave the first consumer
        unwoken, so it raises.
        """
        if self._consumer is not None:
            where = "" if self._switch is None else f" port {self._port}"
            raise ValueError(
                f"{self.name}: already consumed by "
                f"{self._consumer.name}{where}"
            )
        self._consumer = component
        if port is not None:
            self._switch = component
            self._port = port

    def attach_producer(self, component) -> None:
        """Add ``component`` to the producers woken when space frees.

        ``component`` has a ``_blocked`` flag, which it sets when a tick
        found no room for any of its packets.  A pop wakes every blocked
        producer, in registration order.
        """
        if self._producer is None:
            self._producer = component
        else:
            self._more_producers += (component,)

    # -- capacity ------------------------------------------------------ #
    @property
    def used_flits(self) -> int:
        """Flits of fully-arrived packets currently buffered."""
        return self._used_flits

    @property
    def free_flits(self) -> int:
        """Flits available for new reservations."""
        return self.capacity_flits - self._used_flits - self._reserved_flits

    def can_reserve(self, flits: int) -> bool:
        return flits <= self.free_flits

    def reserve(self, flits: int) -> None:
        """Reserve space for an in-flight packet (call once per packet)."""
        if flits > self.free_flits:
            raise OverflowError(
                f"{self.name}: reserve({flits}) exceeds free space "
                f"({self.free_flits})"
            )
        self._reserved_flits += flits

    def commit(self, packet: Packet) -> None:
        """Enqueue a packet whose space was previously reserved."""
        if packet.flits > self._reserved_flits:
            raise RuntimeError(
                f"{self.name}: commit without matching reservation"
            )
        self._reserved_flits -= packet.flits
        self._used_flits += packet.flits
        queue = self._queue
        queue.append(packet)
        if self._switch is not None and len(queue) == 1:
            self._switch._note_head(self._port, packet)
        if self.meter is not None:
            self.meter.note(self._used_flits)
        consumer = self._consumer
        if consumer is not None:
            consumer.wake()

    def push(self, packet: Packet) -> bool:
        """Reserve-and-commit in one step; False if there is no room."""
        if not self.can_reserve(packet.flits):
            return False
        self._reserved_flits += packet.flits
        self.commit(packet)
        return True

    # -- consumption --------------------------------------------------- #
    def head(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def pop(self) -> Packet:
        queue = self._queue
        packet = queue.popleft()
        self._used_flits -= packet.flits
        if self._switch is not None:
            self._switch._note_head(self._port, queue[0] if queue else None)
        producer = self._producer
        if producer is not None and producer._blocked:
            producer._blocked = False
            producer.wake()
        if self._more_producers:
            for producer in self._more_producers:
                if producer._blocked:
                    producer._blocked = False
                    producer.wake()
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def clear(self) -> None:
        """Discard all queued packets and outstanding reservations.

        A clear is a queue-level reset, so any attached telemetry meter is
        told the occupancy collapsed to zero — otherwise its standing
        epoch peak would keep reporting pre-clear occupancy after an
        engine reset.  A consuming switch is told the queue went empty.
        """
        if self._switch is not None and self._queue:
            self._switch._note_head(self._port, None)
        self._queue.clear()
        self._used_flits = 0
        self._reserved_flits = 0
        if self.meter is not None:
            self.meter.note_cleared()

    def state_digest(self):
        """Identity-free state tuple for the lockstep oracle."""
        return (
            self._used_flits,
            self._reserved_flits,
            tuple(packet.signature() for packet in self._queue),
        )


class LiveInputs:
    """Switch-side half of the queue-consumer protocol.

    Holds ``_live``, the ascending input ports whose queue is nonempty;
    ``_heads``, each port's head packet (``None`` when empty), in the
    shape the arbitration policies take; and ``_max_flits``, the largest
    head packet any input has exposed, an upper bound on every current
    head.  The input queues keep all three current through
    :meth:`_note_head`, so the lists change only when a queue's head
    does and no tick has to rescan its inputs.  They are derived from the
    queues and stay out of ``state_digest``.
    """

    _live: List[int]
    _heads: List[Optional[Packet]]
    _max_flits: int

    def _attach_inputs(self, inputs: List[PacketQueue]) -> None:
        self._live = []
        self._heads = [None] * len(inputs)
        self._max_flits = 0
        for port, queue in enumerate(inputs):
            queue.attach_consumer(self, port)
            if queue:
                self._note_head(port, queue.head())

    def _note_head(self, port: int, head: Optional[Packet]) -> None:
        """Input ``port``'s head packet is now ``head`` (None = empty)."""
        heads = self._heads
        if head is None:
            self._live.remove(port)
        else:
            if heads[port] is None:
                insort(self._live, port)
            if head.flits > self._max_flits:
                self._max_flits = head.flits
        heads[port] = head
