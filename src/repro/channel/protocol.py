"""The covert-channel protocol: slot timing, synchronization, and the
sender/receiver warp programs of Algorithm 2.

One bit is communicated per timing slot of ``T`` cycles, agreed between
sender and receiver ahead of time.  Within a slot:

* the **sender** injects ``iterations`` uncoalesced memory operations to
  communicate '1', or stays silent for '0';
* the **receiver** issues ``iterations`` uncoalesced probe reads to the L2
  and records the total latency; contention on the shared interconnect
  channel marks a '1'.

Both sides count the slot on their *own* SM clock register.  Because the
skew between co-located SMs is a few cycles (Section 4.1), no handshake is
needed; a periodic coarse resynchronization — waiting until the low
``sync_mask`` bits of the clock equal a fixed value — resets any drift
accumulated from slot overruns (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..config import GpuConfig
from ..gpu.coalescer import (
    lane_addresses_coalesced,
    lane_addresses_partial,
    lane_addresses_uncoalesced,
)
from ..gpu.warp import (
    MemOp,
    ReadClock,
    WaitClockMask,
    WaitUntilClock,
    WarpContext,
    WarpProgram,
    READ,
    WRITE,
)


@dataclass(frozen=True)
class ChannelParams:
    """Tunable parameters shared by sender and receiver.

    The defaults are calibrated for the simulated Volta configuration the
    same way the paper calibrates for real hardware: the slot must fit the
    sender's injection burst and the receiver's probes with margin, and
    the threshold sits between the contended / uncontended probe times.
    """

    #: Memory operations used to communicate one bit (Figure 10 x-axis).
    iterations: int = 4
    #: Slot duration in cycles; if 0, computed as
    #: ``slot_base + iterations * slot_per_iteration``.
    slot_cycles: int = 0
    slot_base: int = 400
    slot_per_iteration: int = 400
    #: Bits between coarse resynchronizations; 0 disables resync
    #: (the drifting configuration of Figure 9a).
    sync_period: int = 8
    #: Low-bit mask compared against ``sync_target`` during resync.  The
    #: period (mask+1) must exceed the slot so a resync boundary is never
    #: missed.
    sync_mask: int = (1 << 13) - 1
    sync_target: int = 0
    #: Mask for the one-time *initial* synchronization.  None uses
    #: ``sync_mask``.  MPS-style launches (two processes, large launch
    #: skew) need a period comfortably above the skew so both kernels
    #: meet at the same first boundary — the paper's "one-time
    #: synchronization overhead" of the MPS variant.
    initial_sync_mask: Optional[int] = None
    #: Concurrent sender warps (the paper uses 5 for the TPC channel and
    #: 8 for the GPC channel to overcome the GPC bandwidth speedup).
    sender_warps: int = 2
    #: Sender memory-access kind: writes for the TPC channel, reads for
    #: the GPC channel (Section 3.4).
    sender_kind: str = WRITE
    #: Unique cache lines per sender warp op: 32 = fully uncoalesced.
    sender_lines: int = 32
    #: Whether receiver probes are uncoalesced (Figure 13 studies this).
    receiver_lines: int = 32
    #: Decision threshold on the per-slot latency sum; None = calibrate.
    threshold: Optional[float] = None
    #: SIMT lanes participating in each access.
    lanes: int = 32
    #: Per-channel phase stagger (cycles).  Parallel channels offset their
    #: sync target by ``channel_index * stagger`` so their probe bursts do
    #: not collide on the shared GPC reply channel every slot — without
    #: it, the aligned probes of 7 co-GPC channels raise each other's
    #: latency and the cross-channel noise eats the margin.
    stagger: int = 347

    @property
    def slot(self) -> int:
        """Effective slot length in cycles."""
        if self.slot_cycles:
            return self.slot_cycles
        return self.slot_base + self.iterations * self.slot_per_iteration

    def with_(self, **changes) -> "ChannelParams":
        return replace(self, **changes)


#: Distinct per-warp op phases; bounds each warp's footprint to
#: ``REGION_OPS * lanes`` cache lines so that even the 40-channel attack
#: (120+ warps with disjoint regions) fits comfortably inside the L2 —
#: the attack must never spill to DRAM (Section 4.2).
REGION_OPS = 4


def sender_addresses(
    params: ChannelParams, base: int, line_bytes: int, op_index: int
) -> List[int]:
    """Lane addresses for one sender op (controls coalescing degree)."""
    offset = base + (op_index % REGION_OPS) * params.lanes * line_bytes
    if params.sender_lines >= params.lanes:
        return lane_addresses_uncoalesced(offset, line_bytes, params.lanes)
    if params.sender_lines <= 1:
        return lane_addresses_coalesced(offset, line_bytes, params.lanes)
    return lane_addresses_partial(
        offset, line_bytes, params.sender_lines, params.lanes
    )


def receiver_addresses(
    params: ChannelParams, base: int, line_bytes: int, op_index: int
) -> List[int]:
    """Lane addresses for one receiver probe."""
    offset = base + (op_index % REGION_OPS) * params.lanes * line_bytes
    if params.receiver_lines >= params.lanes:
        return lane_addresses_uncoalesced(offset, line_bytes, params.lanes)
    if params.receiver_lines <= 1:
        return lane_addresses_coalesced(offset, line_bytes, params.lanes)
    return lane_addresses_partial(
        offset, line_bytes, params.receiver_lines, params.lanes
    )


def region_bytes(params: ChannelParams, line_bytes: int) -> int:
    """Bytes a sender/receiver warp touches (for L2 preloading)."""
    return REGION_OPS * params.lanes * line_bytes


def sender_program(context: WarpContext) -> WarpProgram:
    """Algorithm 2, sender side.

    Kernel args: ``params`` (:class:`ChannelParams`), ``channel_bits``
    (block id -> bit/level list), ``line_bytes``, ``base_for`` (block id ->
    base address).  Blocks without an entry in ``channel_bits`` idle out.
    ``levels``: list of per-symbol request densities for the multi-level
    channel; for the binary channel symbol s != 0 sends with full density.
    ``target_device``: optional device id for multi-GPU link channels —
    every memory op goes over the inter-GPU fabric to that device's L2
    instead of the local NoC (absent/None keeps on-chip behavior).
    """
    args = context.args
    params: ChannelParams = args["params"]
    target_device = args.get("target_device")
    bits = args["channel_bits"].get(context.block_id)
    if bits is None:
        return
    line_bytes = args["line_bytes"]
    base = args["base_for"][context.block_id] + context.warp_id * region_bytes(
        params, line_bytes
    )
    levels: Optional[Sequence[int]] = args.get("levels")
    slot = params.slot
    channel = args.get("channel_of", {}).get(context.block_id, 0)
    target = (params.sync_target + channel * params.stagger) & params.sync_mask
    first_mask = (
        params.sync_mask
        if params.initial_sync_mask is None
        else params.initial_sync_mask
    )
    iterations = params.iterations
    # Unique-line count -> this warp's op for each address phase.  An
    # op's lane addresses depend only on its phase and line count, and
    # the SM never mutates a ``MemOp``, so each distinct op is built
    # once and yielded again.
    ops_for: Dict[int, List[MemOp]] = {}
    yield WaitClockMask(first_mask, target & first_mask)
    slot_start = yield ReadClock()
    for index, symbol in enumerate(bits):
        if params.sync_period and index and index % params.sync_period == 0:
            yield WaitClockMask(params.sync_mask, target)
            slot_start = yield ReadClock()
        if symbol:
            lines = (
                levels[symbol]
                if levels is not None
                else params.sender_lines
            )
            ops = ops_for.get(lines)
            if ops is None:
                local = params.with_(sender_lines=lines)
                ops = ops_for[lines] = [
                    MemOp(
                        params.sender_kind,
                        sender_addresses(local, base, line_bytes, phase),
                        wait_for_completion=False, device=target_device,
                    )
                    for phase in range(min(iterations, REGION_OPS))
                ]
            for op in range(iterations):
                yield ops[op % REGION_OPS]
        now = yield ReadClock()
        slot_end = slot_start + slot
        if now < slot_end:
            yield WaitUntilClock(slot_end)
            slot_start = slot_end
        else:
            slot_start = now  # overran the slot: drift (Figure 9a)


def receiver_program(context: WarpContext) -> WarpProgram:
    """Algorithm 2, receiver side.

    Records the summed probe latency of every slot into
    ``args['measurements'][(block_id, slot_index)]``.  As with the
    sender, an optional ``target_device`` arg retargets every probe at a
    remote device's L2 over the inter-GPU fabric.
    """
    args = context.args
    params: ChannelParams = args["params"]
    target_device = args.get("target_device")
    num_symbols = args["num_symbols"].get(context.block_id)
    if num_symbols is None:
        return
    line_bytes = args["line_bytes"]
    base = args["base_for"][context.block_id]
    measurements: Dict = args["measurements"]
    slot = params.slot
    channel = args.get("channel_of", {}).get(context.block_id, 0)
    target = (params.sync_target + channel * params.stagger) & params.sync_mask
    first_mask = (
        params.sync_mask
        if params.initial_sync_mask is None
        else params.initial_sync_mask
    )
    iterations = params.iterations
    # One probe per address phase, built once (see sender_program).
    probes = [
        MemOp(
            READ,
            receiver_addresses(params, base, line_bytes, phase),
            device=target_device,
        )
        for phase in range(min(iterations, REGION_OPS))
    ]
    yield WaitClockMask(first_mask, target & first_mask)
    slot_start = yield ReadClock()
    for index in range(num_symbols):
        if params.sync_period and index and index % params.sync_period == 0:
            yield WaitClockMask(params.sync_mask, target)
            slot_start = yield ReadClock()
        total_latency = 0
        for op in range(iterations):
            latency = yield probes[op % REGION_OPS]
            total_latency += latency
        measurements[(context.block_id, index)] = total_latency
        now = yield ReadClock()
        slot_end = slot_start + slot
        if now < slot_end:
            yield WaitUntilClock(slot_end)
            slot_start = slot_end
        else:
            slot_start = now


def decode_binary(
    measurements: Sequence[float], threshold: float
) -> List[int]:
    """Threshold decoder: latency above threshold means contention ('1')."""
    return [1 if value > threshold else 0 for value in measurements]


def decode_multilevel(
    measurements: Sequence[float], thresholds: Sequence[float]
) -> List[int]:
    """Multi-level decoder: cut points between the sorted level means."""
    symbols = []
    for value in measurements:
        symbol = 0
        for threshold in thresholds:
            if value > threshold:
                symbol += 1
        symbols.append(symbol)
    return symbols
