"""Unit tests for the SM core: warp programs, LSU, credits, L1 path."""

import pytest

from repro.config import small_config
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.warp import (
    MemOp,
    ReadClock,
    WaitClockMask,
    WaitCycles,
    WaitUntilClock,
    READ,
    WRITE,
)
from repro.gpu.coalescer import lane_addresses_uncoalesced

LINE = 128


def run_program(program_factory, config=None, preload=4096, l1_enabled=False):
    """Run a single-warp kernel on SM0 and return the device."""
    config = config or small_config(timing_noise=0)
    device = GpuDevice(config, l1_enabled=l1_enabled)
    if preload:
        device.preload_region(0, preload)
    kernel = Kernel(program_factory, num_blocks=1, name="t")
    device.run_kernels([kernel])
    return device


class TestMemOps:
    def test_read_latency_includes_l2_pipeline(self):
        observed = []

        def program(ctx):
            latency = yield MemOp(READ, [0])
            observed.append(latency)

        config = small_config(timing_noise=0)
        run_program(program, config)
        assert observed[0] >= config.l2_latency

    def test_read_latency_reasonable_upper_bound(self):
        observed = []

        def program(ctx):
            observed.append((yield MemOp(READ, [0])))

        config = small_config(timing_noise=0)
        run_program(program, config)
        assert observed[0] < config.l2_latency + 100

    def test_posted_write_retires_fast(self):
        observed = []

        def program(ctx):
            observed.append((yield MemOp(WRITE, [0])))

        config = small_config(timing_noise=0)
        run_program(program, config)
        # A posted store retires at issue, long before the L2 round trip.
        assert observed[0] < config.l2_latency

    def test_waited_write_takes_round_trip(self):
        observed = []

        def program(ctx):
            observed.append(
                (yield MemOp(WRITE, [0], wait_for_completion=True))
            )

        config = small_config(timing_noise=0, write_reply_flits=1)
        run_program(program, config)
        assert observed[0] >= config.l2_latency

    def test_uncoalesced_op_slower_than_single(self):
        observed = []

        def program(ctx):
            single = yield MemOp(READ, [0])
            wide = yield MemOp(
                READ, lane_addresses_uncoalesced(0, LINE, lanes=32)
            )
            observed.extend([single, wide])

        run_program(program, preload=32 * LINE)
        assert observed[1] > observed[0]

    def test_bad_kind_rejected(self):
        def program(ctx):
            yield MemOp("erase", [0])

        with pytest.raises(ValueError):
            run_program(program)

    def test_unknown_action_rejected(self):
        def program(ctx):
            yield "not-an-action"

        with pytest.raises(TypeError):
            run_program(program)


class TestClockActions:
    def test_read_clock_monotonic(self):
        observed = []

        def program(ctx):
            first = yield ReadClock()
            yield WaitCycles(50)
            second = yield ReadClock()
            observed.extend([first, second])

        run_program(program, preload=0)
        assert observed[1] > observed[0]

    def test_wait_cycles_duration(self):
        observed = []

        def program(ctx):
            first = yield ReadClock()
            yield WaitCycles(200)
            second = yield ReadClock()
            observed.append(second - first)

        config = small_config(timing_noise=0)
        run_program(program, config, preload=0)
        jitter = config.clock_skew.read_jitter
        assert 200 - jitter <= observed[0] <= 200 + jitter + 4

    def test_wait_until_clock(self):
        observed = []

        def program(ctx):
            now = yield ReadClock()
            yield WaitUntilClock(now + 300)
            after = yield ReadClock()
            observed.append(after - now)

        config = small_config(timing_noise=0)
        run_program(program, config, preload=0)
        assert observed[0] >= 295

    def test_wait_clock_mask_lands_on_boundary(self):
        observed = []
        mask = (1 << 10) - 1

        def program(ctx):
            yield WaitClockMask(mask, 0)
            observed.append((yield ReadClock()))

        config = small_config(
            timing_noise=0,
            clock_skew=small_config().clock_skew.__class__(
                gpc_base_min=1000, gpc_base_max=1001, tpc_jitter=0,
                sm_jitter=0, read_jitter=0,
            ),
        )
        run_program(program, config, preload=0)
        # The observed clock should sit just past a mask boundary (the
        # ReadClock resumes one cycle after the wake).
        assert observed[0] & mask <= 2

    def test_non_contiguous_mask_rejected(self):
        def program(ctx):
            yield WaitClockMask(0b1010, 0)

        with pytest.raises(ValueError):
            run_program(program, preload=0)


class TestCreditsAndScheduling:
    def test_mshr_limit_respected(self):
        config = small_config(timing_noise=0, sm_mshrs=4)
        device = GpuDevice(config)
        device.preload_region(0, 64 * LINE)
        max_outstanding = []

        def program(ctx):
            yield MemOp(READ, lane_addresses_uncoalesced(0, LINE, lanes=16))

        kernel = Kernel(program, num_blocks=1, name="t")
        device.launch(kernel)
        for _ in range(2000):
            device.engine.step()
            outstanding = config.sm_mshrs - device.sms[0]._read_credits
            max_outstanding.append(outstanding)
            if kernel.done:
                break
        assert max(max_outstanding) <= 4

    def test_write_credits_return(self):
        config = small_config(timing_noise=0)
        device = GpuDevice(config)
        device.preload_region(0, 64 * LINE)

        def program(ctx):
            for _ in range(4):
                yield MemOp(
                    WRITE, lane_addresses_uncoalesced(0, LINE, lanes=8)
                )

        kernel = Kernel(program, num_blocks=1, name="t")
        device.launch(kernel)
        device.run()
        device.engine.step(600)  # drain the posted writes
        assert device.sms[0]._write_credits == config.sm_write_buffer

    def test_streaming_writer_parks_instead_of_retrying(self):
        # A tick that spends its issue budget and leaves no room for the
        # next write parks the SM at once, so issue attempts are refused
        # only in ticks that start a new op (8 here), not once per cycle
        # the full injection queue holds it back (246 before parking).
        config = small_config(timing_noise=0)
        device = GpuDevice(config)
        device.preload_region(0, 64 * LINE)
        sm = device.sms[0]
        refused = []
        issue = sm._issue_one

        def counting_issue(warp, cycle):
            accepted = issue(warp, cycle)
            if not accepted:
                refused.append(cycle)
            return accepted

        sm._issue_one = counting_issue

        def program(ctx):
            for _ in range(8):
                yield MemOp(
                    WRITE, lane_addresses_uncoalesced(0, LINE, lanes=32)
                )

        device.run_kernels([Kernel(program, num_blocks=1, name="t")])
        assert len(refused) <= 8

    def test_multiple_warps_share_lsu(self):
        config = small_config(timing_noise=0)
        device = GpuDevice(config)
        device.preload_region(0, 64 * LINE)
        done_counter = []

        def program(ctx):
            yield MemOp(READ, [ctx.warp_id * LINE])
            done_counter.append(ctx.warp_id)

        kernel = Kernel(program, num_blocks=1, warps_per_block=4, name="t")
        device.run_kernels([kernel])
        assert sorted(done_counter) == [0, 1, 2, 3]

    def test_warp_occupancy_limit_enforced(self):
        config = small_config(max_warps_per_sm=2)
        device = GpuDevice(config)
        sm = device.sms[0]
        from repro.gpu.warp import WarpContext

        def program(ctx):
            yield WaitCycles(1)

        for index in range(2):
            context = WarpContext(0, index, 0, 32)
            sm.add_warp(context, program(context))
        with pytest.raises(RuntimeError):
            context = WarpContext(0, 2, 0, 32)
            sm.add_warp(context, program(context))

    def test_smid_property(self, small_device):
        assert small_device.sms[3].smid == 3


class TestL1Path:
    def test_l1_hit_avoids_interconnect(self):
        config = small_config(timing_noise=0)
        device = GpuDevice(config, l1_enabled=True)
        device.preload_region(0, 4 * LINE)
        latencies = []

        def program(ctx):
            first = yield MemOp(READ, [0])
            second = yield MemOp(READ, [0])
            latencies.extend([first, second])

        kernel = Kernel(program, num_blocks=1, name="t")
        device.run_kernels([kernel])
        assert latencies[0] >= config.l2_latency
        assert latencies[1] <= config.l1_hit_latency + 4
        assert device.stats.counters.get("sm0.l1_hits", 0) == 1

    def test_l1_bypass_always_travels(self):
        config = small_config(timing_noise=0)
        device = GpuDevice(config, l1_enabled=False)
        device.preload_region(0, 4 * LINE)
        latencies = []

        def program(ctx):
            for _ in range(2):
                latencies.append((yield MemOp(READ, [0])))

        kernel = Kernel(program, num_blocks=1, name="t")
        device.run_kernels([kernel])
        assert all(lat >= config.l2_latency for lat in latencies)


class TestTimingNoise:
    def test_noise_zero_is_deterministic(self):
        def measure():
            observed = []

            def program(ctx):
                for _ in range(5):
                    observed.append((yield MemOp(READ, [0])))

            run_program(program)
            return observed

        assert measure() == measure()

    def test_noise_perturbs_latency_within_bound(self):
        noise = 50
        config = small_config(timing_noise=noise)
        observed = []

        def program(ctx):
            for op in range(20):
                observed.append((yield MemOp(READ, [0])))

        run_program(program, config)
        base = min(observed)
        assert max(observed) <= base + noise + 16
        assert max(observed) > base  # noise actually fired
