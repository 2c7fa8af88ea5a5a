"""Kernels, thread blocks, and streams (GPU multiprogramming).

A :class:`Kernel` is a grid of thread blocks; each block contributes
``warps_per_block`` warps, and each warp runs the program produced by the
kernel's ``program_factory`` (see :mod:`repro.gpu.warp`).  Kernels are
submitted to :class:`Stream` objects, mirroring the ``cudaStream`` based
multiprogramming the paper uses to co-locate the trojan and the spy
(Section 2.2, 4.3): blocks are dispatched in launch order, so launching the
sender's grid first and the receiver's grid second places them on opposite
SMs of every TPC.

Completion is counted, not scanned: a block's ``live`` count is set to
its warp count when the scheduler places it and drops as each warp's
program ends, and a kernel's ``open_blocks`` drops as each block's count
reaches zero.  ``ThreadBlock.done`` and ``Kernel.done`` are O(1) reads
of those counts, so polling a grid for completion costs the same for
one block as for eighty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .warp import WarpContext, WarpProgram

#: A program factory receives the warp's context and returns its program.
ProgramFactory = Callable[[WarpContext], WarpProgram]

_kernel_ids = itertools.count()


@dataclass
class ThreadBlock:
    """One thread block: dispatch unit of the block scheduler."""

    kernel: "Kernel"
    block_id: int
    #: SM the scheduler placed this block on (set at dispatch).
    sm_id: Optional[int] = None
    #: Warps placed and not yet finished: set to the block's warp count
    #: at dispatch, decremented by the SM as each warp's program ends.
    live: int = 0

    @property
    def done(self) -> bool:
        """Dispatched, and every warp's program has ended."""
        return self.sm_id is not None and not self.live

    def warp_finished(self) -> None:
        """One of this block's warps ended; close the block at zero."""
        self.live -= 1
        if not self.live:
            self.kernel.open_blocks -= 1


class Kernel:
    """A grid launch.

    Parameters
    ----------
    program_factory:
        Called once per warp with its :class:`WarpContext`.
    num_blocks / warps_per_block:
        Grid geometry.
    args:
        Kernel arguments, exposed to programs via ``context.args``.
    name:
        Label used in traces.
    """

    def __init__(
        self,
        program_factory: ProgramFactory,
        num_blocks: int,
        warps_per_block: int = 1,
        args: Optional[Dict] = None,
        name: Optional[str] = None,
    ) -> None:
        if num_blocks <= 0 or warps_per_block <= 0:
            raise ValueError("grid dimensions must be positive")
        self.kernel_id = next(_kernel_ids)
        self.name = name or f"kernel{self.kernel_id}"
        self.program_factory = program_factory
        self.num_blocks = num_blocks
        self.warps_per_block = warps_per_block
        self.args = dict(args or {})
        self.blocks: List[ThreadBlock] = [
            ThreadBlock(self, block_id) for block_id in range(num_blocks)
        ]
        #: Blocks placed on an SM so far.  The scheduler places a
        #: kernel's blocks in id order, so ``blocks[placed:]`` are the
        #: undispatched ones.
        self.placed = 0
        #: Blocks not yet finished (undispatched blocks included).
        self.open_blocks = num_blocks

    @property
    def dispatched(self) -> bool:
        return self.placed == self.num_blocks

    @property
    def done(self) -> bool:
        return not self.open_blocks

    def placement(self) -> List[Optional[int]]:
        """block id -> SM id (None while undisatched)."""
        return [block.sm_id for block in self.blocks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel({self.name!r}, blocks={self.num_blocks}, "
            f"warps_per_block={self.warps_per_block})"
        )


class Stream:
    """An in-order launch queue, like ``cudaStream_t``.

    Kernels in one stream run back-to-back; kernels in different streams
    run concurrently (the multiprogramming that makes the covert channel
    possible).
    """

    def __init__(self, name: str = "stream") -> None:
        self.name = name
        self.pending: List[Kernel] = []
        self.running: Optional[Kernel] = None

    def enqueue(self, kernel: Kernel) -> Kernel:
        self.pending.append(kernel)
        return kernel

    @property
    def busy(self) -> bool:
        return self.running is not None or bool(self.pending)
