"""Thread-block scheduler with the reverse-engineered placement policy.

Section 4.3 of the paper determines that the hardware scheduler interleaves
thread blocks **across GPCs first**, and **across the TPCs within a GPC**
before placing a second block on any TPC.  Consequently, launching a
40-block sender grid followed by a 40-block receiver grid puts exactly one
sender block and one receiver block on the two SMs of every TPC — the
co-location the TPC covert channel needs.

The scheduler here implements that policy exactly and deterministically:
SM dispatch slots are ordered by (SM-slot within TPC, TPC round within
GPC, GPC id), and pending blocks from all streams are placed in launch
order whenever slots are free.

Completion is counted (see :mod:`repro.gpu.kernel`): retiring, promoting
and the park test read O(1) block and kernel counts, and the blocks a
kernel has yet to dispatch are the suffix past its ``placed`` count, so
a scheduler tick costs one check per resident block and stream rather
than a rescan of every block and warp of every grid.
"""

from __future__ import annotations

from typing import Callable, List

from ..config import GpuConfig
from ..sim.engine import Component, FOREVER
from .kernel import Kernel, Stream, ThreadBlock
from .sm import StreamingMultiprocessor
from .warp import WarpContext


def dispatch_order(config: GpuConfig) -> List[int]:
    """The SM ids in hardware dispatch-slot order.

    First one SM of every TPC, interleaving GPCs each round; then the
    second SM of every TPC in the same order; and so on for further waves.
    """
    members = config.gpc_members()
    max_tpcs = max(config.tpcs_per_gpc)
    order: List[int] = []
    for sm_slot in range(config.sms_per_tpc):
        for tpc_round in range(max_tpcs):
            for gpc in range(config.num_gpcs):
                tpcs = members[gpc]
                if tpc_round < len(tpcs):
                    order.append(config.tpc_sms(tpcs[tpc_round])[sm_slot])
    return order


class ThreadBlockScheduler(Component):
    """Dispatches pending blocks onto SMs each cycle."""

    name = "block_scheduler"

    def __init__(
        self,
        config: GpuConfig,
        sms: List[StreamingMultiprocessor],
    ) -> None:
        self.config = config
        self.sms = sms
        for sm in sms:
            sm.on_warp_done = self.wake
        self.streams: List[Stream] = []
        self._order = dispatch_order(config)
        #: Blocks resident on each SM (block -> freed when done).
        self._resident: List[List[ThreadBlock]] = [[] for _ in sms]

    def add_stream(self, stream: Stream) -> Stream:
        self.streams.append(stream)
        self.wake()
        return stream

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        """Retire, promote and dispatch, then write the park horizon.

        The scheduler only has work after a launch or a warp completion.
        It stays busy while a stream can promote a kernel, a running
        kernel has undispatched blocks, or a resident block has finished
        (retirement pending).  Those conditions can only *become* true
        through ``add_stream``/``Stream.enqueue`` (the device wakes the
        scheduler on launch) or a warp finishing (each SM's
        ``on_warp_done`` hook wakes the scheduler), so parking
        (``FOREVER``) in every other state is exact.
        """
        self._retire_blocks()
        self._promote_streams()
        self._dispatch(cycle)
        for stream in self.streams:
            running = stream.running
            if running is None:
                if stream.pending:
                    self._until = None
                    return
            elif running.done or running.placed < running.num_blocks:
                self._until = None  # undispatched work remains
                return
        # No resident block is finished here: _retire_blocks dropped
        # every finished one, dispatch adds only live blocks, and no
        # warp runs between the two.
        self._until = FOREVER

    def _retire_blocks(self) -> None:
        for sm_index, resident in enumerate(self._resident):
            if not resident:
                continue
            still = [block for block in resident if block.live]
            if len(still) != len(resident):
                self._resident[sm_index] = still
                self.sms[sm_index].retire_finished_warps()

    def _promote_streams(self) -> None:
        for stream in self.streams:
            if stream.running is not None and stream.running.done:
                stream.running = None
            if stream.running is None and stream.pending:
                stream.running = stream.pending.pop(0)

    def _dispatch(self, cycle: int) -> None:
        pending = self._pending_blocks()
        if not pending:
            return
        for sm_id in self._order:
            if not pending:
                break
            sm = self.sms[sm_id]
            if len(self._resident[sm_id]) >= self.config.max_blocks_per_sm:
                continue
            free_warps = self.config.max_warps_per_sm - len(sm.warps)
            block = pending[0]
            if block.kernel.warps_per_block > free_warps:
                continue
            pending.pop(0)
            self._place(block, sm)

    def _pending_blocks(self) -> List[ThreadBlock]:
        """Undispatched blocks of running kernels, in launch order."""
        blocks: List[ThreadBlock] = []
        running = [
            stream.running for stream in self.streams
            if stream.running is not None
        ]
        running.sort(key=lambda kernel: kernel.kernel_id)
        for kernel in running:
            blocks.extend(kernel.blocks[kernel.placed:])
        return blocks

    def _place(self, block: ThreadBlock, sm: StreamingMultiprocessor) -> None:
        kernel = block.kernel
        block.sm_id = sm.sm_id
        block.live = kernel.warps_per_block
        kernel.placed += 1
        for warp_id in range(kernel.warps_per_block):
            context = WarpContext(
                block_id=block.block_id,
                warp_id=warp_id,
                sm_id=sm.sm_id,
                lanes=self.config.simt_width,
                args=kernel.args,
            )
            program = kernel.program_factory(context)
            sm.add_warp(context, program, block)
        self._resident[sm.sm_id].append(block)

    @property
    def all_idle(self) -> bool:
        return all(not stream.busy for stream in self.streams)

    def state_digest(self):
        """Dispatch state by counts (kernel ids are process-global)."""
        return (
            tuple(len(resident) for resident in self._resident),
            tuple(
                (stream.running is not None, len(stream.pending))
                for stream in self.streams
            ),
        )

    def reset(self) -> None:
        self.streams.clear()
        self._resident = [[] for _ in self.sms]
