"""Bounded packet queues with flit-level capacity accounting.

Every channel endpoint in the NoC is a :class:`PacketQueue`.  Capacity is
counted in flits (not packets) so that big write/reply packets consume more
buffering than single-flit read requests, and upstream muxes use
reserve/commit semantics: space for a whole packet is reserved when its
first flit is transmitted (virtual cut-through), the packet object is
enqueued when its last flit arrives, and the space is released on pop.

A queue may also have one consuming switch (a :class:`LiveInputs`
subclass: :class:`~repro.noc.mux.Mux` or
:class:`~repro.noc.crossbar.Crossbar`).  The queue then tells that switch
whenever its head packet changes — empty to nonempty on ``commit``, a new
head or empty on ``pop``, empty on ``clear`` — so the switch keeps its
nonempty input ports as a live list instead of rescanning every input on
every tick.

A queue may likewise have one producer: the component that fills it (a
switch, an SM, a link pipe).  A producer that found no room for any of
its packets sets its ``_blocked`` flag and parks; the next ``pop`` —
the only event that frees space — clears the flag and wakes it.  An
unblocked producer is never woken by a pop.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Deque, List, Optional

from .packet import Packet


class PacketQueue:
    """FIFO of packets with a flit-capacity bound."""

    __slots__ = ("name", "capacity_flits", "_queue", "_used_flits",
                 "_reserved_flits", "on_push", "on_space", "meter",
                 "_consumer", "_port", "_producer")

    def __init__(self, name: str, capacity_flits: int) -> None:
        if capacity_flits <= 0:
            raise ValueError("capacity_flits must be positive")
        self.name = name
        self.capacity_flits = capacity_flits
        self._queue: Deque[Packet] = deque()
        self._used_flits = 0
        self._reserved_flits = 0
        #: Optional hook fired when a packet lands in the queue.  The
        #: device wires it to the consuming component's ``wake`` so the
        #: engine's active-set scheduler learns about new work.
        self.on_push: Optional[Callable[[], None]] = None
        #: Optional hook fired when a pop frees space, for a queue shared
        #: by several producers (the fabric egress queue every SM of a
        #: device injects into); a queue with one producer uses
        #: :meth:`attach_producer` instead.
        self.on_space: Optional[Callable[[], None]] = None
        #: Optional telemetry occupancy meter (``QueueMeter``); stays
        #: ``None`` unless the device enables telemetry.
        self.meter = None
        #: The switch this queue feeds and its input port there (see
        #: :meth:`attach_consumer`); ``None`` for queues no switch reads.
        self._consumer: Optional["LiveInputs"] = None
        self._port = -1
        #: The component that fills this queue (see
        #: :meth:`attach_producer`); ``None`` when no one registered.
        self._producer = None

    def attach_consumer(self, switch: "LiveInputs", port: int) -> None:
        """Make ``switch`` the one consumer told about head changes.

        A queue has exactly one consumer: a second registration would
        silently leave the first switch's live list stale, so it raises.
        """
        if self._consumer is not None:
            raise ValueError(
                f"{self.name}: already consumed by "
                f"{self._consumer.name} port {self._port}"
            )
        self._consumer = switch
        self._port = port

    def attach_producer(self, component) -> None:
        """Make ``component`` the one producer woken when space frees.

        ``component`` has a ``_blocked`` flag, which it sets when a tick
        found no room for any of its packets.  A second registration
        would leave the first producer parked forever, so it raises.
        """
        if self._producer is not None:
            raise ValueError(
                f"{self.name}: already produced by {self._producer.name}"
            )
        self._producer = component

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
        if self._consumer is not None and len(queue) == 1:
            self._consumer._note_head(self._port, packet)
        if self.meter is not None:
            self.meter.note(self._used_flits)
        if self.on_push is not None:
            self.on_push()

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
        if self._consumer is not None:
            self._consumer._note_head(self._port, queue[0] if queue else None)
        producer = self._producer
        if producer is not None and producer._blocked:
            producer._blocked = False
            producer.wake()
        if self.on_space is not None:
            self.on_space()
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
        if self._consumer is not None and self._queue:
            self._consumer._note_head(self._port, None)
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
