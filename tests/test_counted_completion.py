"""Counted completion and the transaction-free warp front end.

``ThreadBlock.done`` and ``Kernel.done`` read counts the scheduler and
the SMs keep (a block's live warps, a kernel's open blocks) instead of
scanning every block and warp.  The reference functions below are the
scans they replaced, kept verbatim as the oracle: seeded TPC, GPC,
2-device ring link, back-to-back stream and MPS-skew runs check both
properties against them after every single tick.

The SM issues plain line addresses (no per-transaction objects), and a
TPC channel run with the L1 enabled, which takes the per-line L1 path,
must reproduce the recorded result bit for bit.
"""

import inspect

import pytest

import repro.channel.base as channel_base
import repro.gpu.sm as sm_module
from repro.config import LinkConfig, small_config
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import READ, WRITE, MemOp, WaitCycles
from repro.sim.engine import Engine


# ---------------------------------------------------------------------- #
# Reference scans: what completion meant before it was counted.
# ---------------------------------------------------------------------- #
def _block_done(block, slots):
    return bool(slots) and all(slot.done for slot in slots)


def _kernel_done(kernel, slots_of):
    return all(
        _block_done(block, slots_of.get(id(block), ()))
        for block in kernel.blocks
    )


@pytest.fixture
def checked_completion(monkeypatch):
    """Check every kernel's and block's ``done`` after every tick.

    Records each ``Kernel`` built during the test and each block's warp
    slots as the scheduler places them, and wraps the ``tick`` of every
    component an engine registers.  Returns a dict with the
    number of checked ticks and the set of ``done`` values seen, so a
    run that never reaches (or never leaves) completion is caught.
    """
    kernels = []
    slots_of = {}  # id(block) -> the block's warp slots
    seen = {"ticks": 0, "kernel_done": set(), "block_done": set()}
    init = Kernel.__init__
    add_warp = StreamingMultiprocessor.add_warp

    def init_recorded(kernel, *args, **kwargs):
        init(kernel, *args, **kwargs)
        kernels.append(kernel)

    def add_warp_recorded(sm, context, program, block=None):
        slot = add_warp(sm, context, program, block)
        slots_of.setdefault(id(block), []).append(slot)
        return slot

    def check(where):
        for kernel in kernels:
            expected = _kernel_done(kernel, slots_of)
            assert kernel.done == expected, (
                f"{kernel.name} after {where}: done {kernel.done}, "
                f"scan {expected}"
            )
            seen["kernel_done"].add(expected)
            for block in kernel.blocks:
                expected = _block_done(block, slots_of.get(id(block), ()))
                assert block.done == expected, (
                    f"{kernel.name} block {block.block_id} after {where}"
                )
                seen["block_done"].add(expected)
        seen["ticks"] += 1

    register = Engine.register

    def register_checked(engine, component):
        tick = component.tick

        def tick_checked(cycle):
            tick(cycle)
            check(f"{component.name} at cycle {cycle}")

        component.tick = tick_checked
        return register(engine, component)

    monkeypatch.setattr(Kernel, "__init__", init_recorded)
    monkeypatch.setattr(StreamingMultiprocessor, "add_warp",
                        add_warp_recorded)
    monkeypatch.setattr(Engine, "register", register_checked)
    return seen


def _tpc_run():
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(small_config())
    channel.calibrate(training_symbols=2)
    return channel.transmit([1, 0, 1, 1]).received_symbols


def _gpc_run():
    from repro.channel import GpcCovertChannel

    channel = GpcCovertChannel(small_config())  # 2 warps per sender block
    channel.calibrate(training_symbols=2)
    return channel.transmit([1, 0, 1]).received_symbols


def _link_run():
    from repro.channel.link_channel import LinkCovertChannel

    channel = LinkCovertChannel(
        small_config(), LinkConfig(num_devices=2, topology="ring")
    )
    channel.calibrate(training_symbols=2)
    return channel.transmit([1, 0, 1]).received_symbols


def _stream_run():
    """Two kernels back to back on one stream, a third beside them."""
    device = GpuDevice(small_config())
    device.preload_region(0, 64 * 128)

    def program(ctx):
        for op in range(3):
            yield MemOp(READ, [(ctx.warp_id * 8 + lane) * 128
                               for lane in range(8)])
            yield MemOp(WRITE, [(ctx.block_id * 4 + op) * 128],
                        wait_for_completion=False)
            yield WaitCycles(ctx.block_id + 1)

    stream = device.create_stream()
    first = Kernel(program, num_blocks=5, warps_per_block=2, name="first")
    second = Kernel(program, num_blocks=3, warps_per_block=3,
                    name="second")
    device.launch(first, stream)
    device.launch(second, stream)
    device.launch(Kernel(program, num_blocks=2, name="beside"))
    device.run()
    assert first.done and second.done
    return device.engine.cycle


def _mps_run():
    from repro.channel import TpcCovertChannel
    from repro.channel.protocol import ChannelParams

    channel = TpcCovertChannel(
        small_config(),
        params=ChannelParams(initial_sync_mask=(1 << 16) - 1),
    )
    channel.mps_launch_skew = 3000
    channel.calibrate(training_symbols=2)
    return channel.transmit([1, 0, 1]).received_symbols


@pytest.mark.parametrize(
    "run",
    [_tpc_run, _gpc_run, _link_run, _stream_run, _mps_run],
    ids=["tpc", "gpc-multi-warp", "link-ring", "stream", "mps-skew"],
)
def test_done_matches_reference_scan_after_every_tick(
    checked_completion, run
):
    run()
    assert checked_completion["ticks"] > 1000
    assert checked_completion["kernel_done"] == {False, True}
    assert checked_completion["block_done"] == {False, True}


def test_not_done_before_dispatch():
    def program(ctx):
        yield WaitCycles(1)

    kernel = Kernel(program, num_blocks=2, warps_per_block=2)
    assert not kernel.done and not kernel.dispatched
    assert not any(block.done for block in kernel.blocks)
    device = GpuDevice(small_config())
    device.launch(kernel)
    device.engine.step()  # the scheduler places both blocks
    assert kernel.dispatched and not kernel.done
    assert [block.live for block in kernel.blocks] == [2, 2]
    device.run()
    assert kernel.done and kernel.open_blocks == 0
    assert all(block.done and not block.live for block in kernel.blocks)


def test_sm_has_no_transaction_objects():
    source = inspect.getsource(sm_module)
    assert "_Transaction" not in source


def test_tpc_channel_with_l1_enabled_is_unchanged(monkeypatch):
    """The enabled-L1 path: every receiver probe after the first slot
    hits the L1, so the channel cannot decode.  Recorded before the
    front end issued plain line addresses."""
    devices = []

    def l1_device(config, seed_salt=0):
        device = GpuDevice(config, l1_enabled=True, seed_salt=seed_salt)
        devices.append(device)
        return device

    monkeypatch.setattr(channel_base, "GpuDevice", l1_device)
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(small_config())
    channel.calibrate(training_symbols=4)
    result = channel.transmit([1, 0, 1, 1, 0, 1, 0, 0])
    assert result.cycles == 16800
    assert result.received_symbols == [1, 0, 0, 0, 0, 0, 0, 0]
    assert result.thresholds == [435.25]
    assert result.measurements == {
        0: [1399, 209, 188, 279, 283, 264, 234, 228]
    }
    counters = devices[-1].stats.counters
    assert sum(
        value for key, value in counters.items() if key.endswith("l1_hits")
    ) == 896
