"""Property tests for the warp front end's one-pass rewrites.

* ``coalesce`` must equal the set-based first-touch reference it
  replaced, for any lane addresses and line size.
* ``sender_program`` and ``receiver_program`` build each distinct op
  once per warp and yield it again; they must yield the same
  ``(kind, addresses, device)`` sequence as the per-op generators they
  replaced, kept verbatim below as the oracle.
"""

from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings, strategies as st

from repro.channel.protocol import (
    ChannelParams,
    receiver_addresses,
    receiver_program,
    region_bytes,
    sender_addresses,
    sender_program,
)
from repro.gpu.coalescer import coalesce
from repro.gpu.warp import (
    MemOp,
    ReadClock,
    WaitClockMask,
    WaitUntilClock,
    WarpContext,
    READ,
    WRITE,
)


def _coalesce_reference(addresses, line_bytes):
    seen = set()
    transactions = []
    for address in addresses:
        line = (address // line_bytes) * line_bytes
        if line not in seen:
            seen.add(line)
            transactions.append(line)
    return transactions


@settings(max_examples=200, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 1 << 20), max_size=32),
    line_bytes=st.sampled_from([32, 64, 128]),
)
def test_coalesce_matches_first_touch_reference(addresses, line_bytes):
    lines = coalesce(addresses, line_bytes)
    assert lines == _coalesce_reference(addresses, line_bytes)
    assert lines is not coalesce(addresses, line_bytes)  # a new list


# ---------------------------------------------------------------------- #
# The per-op generators, as they were before ops were built once.
# ---------------------------------------------------------------------- #
def _sender_reference(context):
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
            local = params.with_(sender_lines=lines)
            for op in range(params.iterations):
                addresses = sender_addresses(local, base, line_bytes, op)
                yield MemOp(
                    params.sender_kind, addresses,
                    wait_for_completion=False, device=target_device,
                )
        now = yield ReadClock()
        slot_end = slot_start + slot
        if now < slot_end:
            yield WaitUntilClock(slot_end)
            slot_start = slot_end
        else:
            slot_start = now


def _receiver_reference(context):
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
    yield WaitClockMask(first_mask, target & first_mask)
    slot_start = yield ReadClock()
    for index in range(num_symbols):
        if params.sync_period and index and index % params.sync_period == 0:
            yield WaitClockMask(params.sync_mask, target)
            slot_start = yield ReadClock()
        total_latency = 0
        for op in range(params.iterations):
            addresses = receiver_addresses(params, base, line_bytes, op)
            latency = yield MemOp(READ, addresses, device=target_device)
            total_latency += latency
        measurements[(context.block_id, index)] = total_latency
        now = yield ReadClock()
        slot_end = slot_start + slot
        if now < slot_end:
            yield WaitUntilClock(slot_end)
            slot_start = slot_end
        else:
            slot_start = now


def _drive(program, clock_step: int) -> List[tuple]:
    """Run a warp program against a scripted SM; return what it yields.

    ``ReadClock`` answers a clock that advances ``clock_step`` per read,
    and each ``MemOp`` answers a latency that depends on its position,
    so slot overruns and latency sums are exercised.
    """
    trace = []
    clock = 0
    value = None
    count = 0
    while True:
        try:
            action = program.send(value)
        except StopIteration:
            return trace
        count += 1
        value = None
        if isinstance(action, MemOp):
            trace.append((
                "mem", action.kind, list(action.addresses), action.device,
                action.blocking(),
            ))
            value = 50 + count % 7
        elif isinstance(action, ReadClock):
            clock += clock_step
            trace.append(("clock",))
            value = clock
        elif isinstance(action, WaitClockMask):
            trace.append(("mask", action.mask, action.target))
        elif isinstance(action, WaitUntilClock):
            trace.append(("until", action.value))
        else:  # pragma: no cover - the programs yield nothing else
            raise AssertionError(action)


def _args(params, symbols, levels, device, measurements):
    return {
        "params": params,
        "channel_bits": {0: symbols},
        "num_symbols": {0: len(symbols)},
        "line_bytes": 128,
        "base_for": {0: 1 << 20},
        "levels": levels,
        "channel_of": {0: 1},
        "target_device": device,
        "measurements": measurements,
    }


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    iterations=st.integers(1, 9),
    multilevel=st.booleans(),
    lines=st.sampled_from([1, 8, 16, 32]),
    kind=st.sampled_from([READ, WRITE]),
    device=st.sampled_from([None, 1]),
    warp_id=st.integers(0, 3),
    clock_step=st.sampled_from([3, 700, 5000]),
    sync_period=st.sampled_from([0, 3, 8]),
)
def test_programs_match_per_op_reference(
    data, iterations, multilevel, lines, kind, device, warp_id, clock_step,
    sync_period,
):
    if multilevel:
        levels = [0] + data.draw(
            st.lists(st.sampled_from([1, 4, 8, 16, 32]),
                     min_size=1, max_size=3),
            label="levels",
        )
    else:
        levels = None
    symbols = data.draw(
        st.lists(st.integers(0, len(levels) - 1 if levels else 1),
                 max_size=12),
        label="symbols",
    )
    params = ChannelParams(
        iterations=iterations, sender_lines=lines, receiver_lines=lines,
        sender_kind=kind, sync_period=sync_period,
    )
    got_measurements, want_measurements = {}, {}
    context = WarpContext(
        0, warp_id, 0, 32,
        _args(params, symbols, levels, device, got_measurements),
    )
    reference = WarpContext(
        0, warp_id, 0, 32,
        _args(params, symbols, levels, device, want_measurements),
    )
    assert _drive(sender_program(context), clock_step) == _drive(
        _sender_reference(reference), clock_step
    )
    assert _drive(receiver_program(context), clock_step) == _drive(
        _receiver_reference(reference), clock_step
    )
    assert got_measurements == want_measurements
