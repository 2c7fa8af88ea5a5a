"""Bounded packet queues with flit-level capacity accounting.

Every channel endpoint in the NoC is a :class:`PacketQueue`.  Capacity is
counted in flits (not packets) so that big write/reply packets consume more
buffering than single-flit read requests, and upstream muxes use
reserve/commit semantics: space for a whole packet is reserved when its
first flit is transmitted (virtual cut-through), the packet object is
enqueued when its last flit arrives, and the space is released on pop.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from .packet import Packet


class PacketQueue:
    """FIFO of packets with a flit-capacity bound."""

    __slots__ = ("name", "capacity_flits", "_queue", "_used_flits",
                 "_reserved_flits", "on_push", "on_space", "meter")

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
        #: Optional hook fired when a pop frees space.  An active-strategy
        #: device wires an SM's injection queue to the SM's ``wake`` so
        #: a backpressure-blocked SM can park instead of retrying every
        #: cycle.
        self.on_space: Optional[Callable[[], None]] = None
        #: Optional telemetry occupancy meter (``QueueMeter``); stays
        #: ``None`` unless the device enables telemetry.
        self.meter = None

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
        self._queue.append(packet)
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
        packet = self._queue.popleft()
        self._used_flits -= packet.flits
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
        engine reset.
        """
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
