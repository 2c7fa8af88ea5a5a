"""Memory request/reply packets that traverse the on-chip network.

A warp-level memory instruction is split by the coalescer into one or more
*transactions*; each transaction becomes one request :class:`Packet` on the
request subnet and (for reads, and for write acknowledgements) one reply
packet on the reply subnet.  Packets carry their size in flits — bandwidth
accounting throughout the NoC is done in flits, matching the Table 1
``flit_size = 40`` configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

READ = "read"
WRITE = "write"

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One network packet (a memory transaction or its reply).

    Attributes
    ----------
    kind:
        ``"read"`` or ``"write"``.
    is_reply:
        False on the request subnet, True on the reply subnet.
    address:
        Byte address of the access (used for L2 slice routing).
    flits:
        Packet length in flits; determines channel occupancy.
    src_sm:
        Logical id of the SM that issued the transaction (reply routing).
    slice_id:
        Destination L2 slice (request routing).
    warp_ref:
        Opaque handle the SM uses to credit the originating warp when the
        transaction completes.
    group_id:
        Warp-level group tag used by coarse-grain round-robin arbitration
        (all transactions of one warp memory op share a group id).
    src_device:
        Device id of the GPU whose SM issued the transaction.  0 on a
        single-GPU system; the inter-GPU fabric routes replies back
        toward it.
    dst_device:
        Device id of the GPU whose L2 serves the transaction.  Equal to
        ``src_device`` for local accesses; the fabric routes requests
        toward it.
    req_uid:
        On a reply packet, the ``uid`` of the request it answers (-1 on
        requests).  The conservation checker uses it to match a delivery
        back to the injected request.
    """

    kind: str
    address: int
    flits: int
    src_sm: int
    slice_id: int
    is_reply: bool = False
    warp_ref: Optional[object] = None
    group_id: int = -1
    #: Cycle the packet was created (age-based arbitration, latency stats).
    birth_cycle: int = 0
    src_device: int = 0
    dst_device: int = 0
    req_uid: int = -1
    #: Drawn from a process-global counter; the factory is the counter's
    #: own ``__next__``, so building a packet runs no Python-level call
    #: beyond ``__init__``.
    uid: int = field(default_factory=_packet_ids.__next__)

    def make_reply(self, flits: int, cycle: int) -> "Packet":
        """Build the reply packet for this request.

        Fields go positionally, in declaration order (``is_reply`` is
        True, ``birth_cycle`` is ``cycle``, ``req_uid`` is this uid):
        keyword construction costs about twice as much per packet.
        """
        return Packet(
            self.kind, self.address, flits, self.src_sm, self.slice_id,
            True, self.warp_ref, self.group_id, cycle,
            self.src_device, self.dst_device, self.uid,
        )

    def signature(self):
        """Identity-free state tuple, comparable across devices.

        Excludes ``uid``/``req_uid`` (drawn from a process-global counter,
        so two separately-built devices disagree on them) and ``warp_ref``
        (an object reference); every field that the simulation's timing
        depends on is included.
        """
        return (
            self.kind,
            self.is_reply,
            self.address,
            self.flits,
            self.src_sm,
            self.slice_id,
            self.group_id,
            self.birth_cycle,
            self.src_device,
            self.dst_device,
        )
