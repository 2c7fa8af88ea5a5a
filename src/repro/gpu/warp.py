"""Warp programs: the behavioural ISA of the simulated SM.

Instead of modelling a full instruction set, each warp runs a *warp
program*: a Python generator that yields :class:`Action` objects to the SM
and is resumed with the action's result.  This maps one-to-one onto the
CUDA kernels of the paper — a kernel is a warp-program factory, and the
actions cover exactly what the attack needs:

* ``MemOp``   — a warp memory instruction (lane addresses -> coalesced
  transactions -> NoC).  Resumed with the measured latency in cycles,
  which is the receiver's probe measurement.
* ``ReadClock`` — read the per-SM ``clock()`` register.
* ``WaitClockMask`` — busy-wait until ``clock() & mask == target``
  (Algorithm 2's Synchronization()).
* ``WaitUntilClock`` — busy-wait until ``clock() >= value`` (slot timing).
* ``WaitCycles`` — sleep a fixed number of cycles.

Example
-------
A minimal streaming-write kernel (Algorithm 1's body)::

    def program(ctx):
        for i in range(amount):
            yield MemOp(WRITE, [base + i * 4])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence

from ..noc.packet import READ, WRITE  # noqa: F401  (re-export for kernels)


@dataclass
class Action:
    """Base class of everything a warp program may yield."""


@dataclass
class MemOp(Action):
    """A warp-level memory instruction.

    Parameters
    ----------
    kind:
        ``"read"`` or ``"write"``.
    addresses:
        Per-lane byte addresses (any length up to the SIMT width); the
        SM's coalescer merges them into transactions.
    wait_for_completion:
        If True (default for reads) the warp blocks until every
        transaction's reply has returned and is resumed with the latency.
        If False (default for writes) the warp is resumed as soon as the
        last transaction has been accepted by the memory system (posted
        stores) and the latency reflects only the issue time.
    device:
        Target device id for multi-GPU systems.  ``None`` (the default)
        targets the issuing SM's own device through the on-chip NoC; an
        integer routes the access over the inter-GPU fabric to that
        device's L2 (NVLink-style peer access), bypassing the local L1.
    """

    kind: str
    addresses: Sequence[int]
    wait_for_completion: Optional[bool] = None
    device: Optional[int] = None

    def blocking(self) -> bool:
        if self.wait_for_completion is None:
            return self.kind == READ
        return self.wait_for_completion


@dataclass
class ReadClock(Action):
    """Resume next cycle with the SM's ``clock()`` value."""


@dataclass
class WaitClockMask(Action):
    """Busy-wait until ``clock() & mask == target`` (coarse resync)."""

    mask: int
    target: int


@dataclass
class WaitUntilClock(Action):
    """Busy-wait until ``clock() >= value`` (slot-boundary wait)."""

    value: int


@dataclass
class WaitCycles(Action):
    """Sleep for a fixed number of SM cycles."""

    cycles: int


#: Type alias for warp program generators.
WarpProgram = Generator[Action, object, None]


# Warp run states ------------------------------------------------------- #
NEW = "new"
READY = "ready"
ISSUING = "issuing"
WAIT_MEM = "wait_mem"
SLEEP = "sleep"
DONE = "done"


@dataclass
class WarpContext:
    """Execution context handed to warp-program factories.

    Mirrors what a CUDA kernel can observe: grid/block/warp coordinates
    plus the special registers (``%smid`` via :attr:`sm_id`).
    """

    block_id: int
    warp_id: int
    sm_id: int
    lanes: int
    #: Arbitrary per-launch payload (kernel arguments).
    args: dict = field(default_factory=dict)


class WarpSlot:
    """Bookkeeping for one resident warp inside an SM."""

    __slots__ = (
        "context",
        "program",
        "state",
        "resume_value",
        "wake_cycle",
        "pending_issue",
        "outstanding",
        "op_start_cycle",
        "op_blocking",
        "op_group",
        "op_kind",
        "op_device",
        "block",
    )

    def __init__(
        self, context: WarpContext, program: WarpProgram, block=None
    ) -> None:
        self.context = context
        self.program = program
        self.state = NEW
        #: Value to send into the generator on next resume.
        self.resume_value: object = None
        #: Engine cycle at which a SLEEP state ends.
        self.wake_cycle = 0
        #: Line addresses of the current MemOp not yet injected, in
        #: coalescer (first-touch) order.
        self.pending_issue: List[int] = []
        #: Injected transactions whose replies are still outstanding.
        self.outstanding = 0
        self.op_start_cycle = 0
        self.op_blocking = False
        self.op_group = -1
        #: Kind of the current MemOp (``READ`` or ``WRITE``).
        self.op_kind = READ
        #: Remote target device of the current MemOp; None when it is
        #: served by the issuing SM's own device.
        self.op_device: Optional[int] = None
        #: The :class:`~repro.gpu.kernel.ThreadBlock` this warp belongs
        #: to, whose live-warp count drops when the program ends; None
        #: for a warp added outside the block scheduler.
        self.block = block

    @property
    def done(self) -> bool:
        return self.state == DONE
