"""Active-set scheduling: cycle-exactness vs the naive loop + fast-forward.

The active strategy layers event-driven frontier stepping, sparse mux
and crossbar ticks and reactive SM backpressure parking over the naive
reference loop; each is a pure optimisation.  These tests pin down the
contract that makes it trustworthy:

* seeded covert-channel runs produce *bit-identical* results (cycle
  counts, received symbols, full latency traces, device counters) under
  ``engine_strategy="active"`` and ``"naive"`` — with and without
  observers (telemetry + validation) attached;
* every ``active`` device wires the sparse ticks and SM parking the same
  way whatever observers are attached, while ``naive`` devices keep the
  scalar ticks (switch-level equivalence lives in
  ``test_sparse_ticks.py``);
* when the whole model is quiescent the engine jumps the cycle counter
  to the next wake-up instead of spinning (ticks executed stay tiny);
* mid-cycle wakes ahead of the scan position tick in the same cycle,
  wakes behind it tick next cycle — the naive loop's pipeline order;
* ``run_until`` hits its timeout cap exactly and checks the condition
  before the first step, under both strategies;
* no path through the simulator imports numpy.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.config import (
    ENGINE_STRATEGIES,
    GpuConfig,
    medium_config,
    small_config,
)
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.warp import MemOp, READ, WRITE, WaitCycles
from repro.sim.engine import FOREVER, Component, Engine


def _channel_fingerprint(config):
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(config)
    channel.calibrate()
    bits = [i % 2 for i in range(16)]
    result = channel.transmit(bits)
    return result.cycles, result.received_symbols, result.measurements


def _gpc_fingerprint(config):
    from repro.channel import GpcCovertChannel

    channel = GpcCovertChannel(config)
    channel.calibrate()
    result = channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])
    return result.cycles, result.received_symbols, result.measurements


class TestCycleExactness:
    @pytest.mark.parametrize("observers", [False, True])
    def test_tpc_channel_identical_small(self, observers):
        # Telemetry + validation only observe: with or without them the
        # sparse ticks and SM parking must be exact.
        config = small_config(
            telemetry_enabled=observers, validate_enabled=observers
        )
        naive = _channel_fingerprint(config.replace(engine_strategy="naive"))
        active = _channel_fingerprint(config.replace(engine_strategy="active"))
        assert naive == active

    def test_gpc_channel_identical_medium(self):
        naive = _gpc_fingerprint(medium_config(engine_strategy="naive"))
        active = _gpc_fingerprint(medium_config(engine_strategy="active"))
        assert naive == active

    def test_device_counters_identical(self):
        def run(strategy):
            config = small_config(engine_strategy=strategy)
            device = GpuDevice(config)

            def program(ctx):
                for i in range(32):
                    yield MemOp(READ, [i * 128])

            device.launch(Kernel(program, num_blocks=4, warps_per_block=2,
                                 name="reader"))
            device.run()
            return device.engine.cycle, device.stats.snapshot()

        assert run("naive") == run("active")

    @pytest.mark.parametrize("reply_voq", [False, True])
    def test_mixed_read_write_counters(self, reply_voq):
        # Reads and writes at once exercise the sparse reply tick in both
        # shapes: per-GPC VOQ muxes and the head-of-line reply crossbar.
        def run(strategy):
            config = small_config(
                engine_strategy=strategy, reply_voq=reply_voq
            )
            device = GpuDevice(config)

            def reader(ctx):
                for i in range(24):
                    yield MemOp(READ, [i * 128])

            def writer(ctx):
                for i in range(24):
                    yield MemOp(WRITE, [i * 256])

            device.launch(Kernel(reader, num_blocks=3, warps_per_block=2,
                                 name="reader"))
            device.launch(Kernel(writer, num_blocks=3, warps_per_block=2,
                                 name="writer"))
            device.run()
            return device.engine.cycle, device.stats.snapshot()

        assert run("naive") == run("active")

    def test_fig9_trace_identical(self):
        from repro.analysis.figures import fig9_latency_trace

        naive = fig9_latency_trace(
            small_config(engine_strategy="naive"), with_sync=True,
            num_bits=12,
        )
        active = fig9_latency_trace(
            small_config(engine_strategy="active"), with_sync=True,
            num_bits=12,
        )
        assert naive == active


class TestActiveWiring:
    @staticmethod
    def _wiring(device):
        """Sparse flags per switch tier and each inject queue's producer."""
        return (
            [mux._sparse for mux in device.tpc_muxes],
            [mux._sparse for mux in device.gpc_muxes],
            [mux._sparse for mux in device.reply_muxes],
            device.request_xbar._sparse,
            [(device.sms.index(queue._producer), queue._more_producers)
             for queue in device.inject_queues],
        )

    @pytest.mark.parametrize("overrides", [
        {},
        {"telemetry_enabled": True},
        {"validate_enabled": True},
        {"tpc_channel_width": 2},
    ])
    def test_observers_do_not_change_wiring(self, overrides):
        # Tracer and invariant checker only observe, and the TPC channel
        # width only sizes the channel: every variant runs the same
        # sparse ticks and SM parking as the plain production device.
        plain = self._wiring(GpuDevice(small_config(engine_strategy="active")))
        wiring = self._wiring(GpuDevice(
            small_config(engine_strategy="active", **overrides)
        ))
        tpc, gpc, reply, xbar, producers = wiring
        assert all(tpc + gpc + reply) and xbar
        # Each SM is its own inject queue's producer, woken by a pop
        # when blocked.
        assert producers == [(sm, ()) for sm in range(len(producers))]
        assert wiring == plain

    def test_naive_keeps_the_scalar_reference(self):
        device = GpuDevice(small_config(engine_strategy="naive"))
        switches = device.tpc_muxes + device.gpc_muxes + device.reply_muxes
        assert not any(switch._sparse for switch in switches)
        assert not device.request_xbar._sparse
        # The wake protocol is the same for both strategies: each SM is
        # its own inject queue's only producer.
        assert [
            (queue._producer, queue._more_producers)
            for queue in device.inject_queues
        ] == [(sm, ()) for sm in device.sms]


class TestFastForward:
    def test_sleeping_warps_fast_forward(self):
        # One warp sleeping 50k cycles: the active engine must jump the
        # gap, executing orders of magnitude fewer ticks than cycles.
        device = GpuDevice(small_config(engine_strategy="active"))

        def sleeper(ctx):
            yield WaitCycles(50_000)

        device.launch(Kernel(sleeper, num_blocks=1, warps_per_block=1,
                             name="sleeper"))
        device.run()
        engine = device.engine
        assert engine.cycle >= 50_000
        assert engine.fast_forwarded_cycles > 45_000
        assert engine.ticks_executed < 1_000

    def test_naive_engine_never_fast_forwards(self):
        device = GpuDevice(small_config(engine_strategy="naive"))

        def sleeper(ctx):
            yield WaitCycles(2_000)

        device.launch(Kernel(sleeper, num_blocks=1, warps_per_block=1,
                             name="sleeper"))
        device.run()
        assert device.engine.fast_forwarded_cycles == 0

    def test_quiescent_empty_engine_jumps_to_step_target(self):
        engine = Engine()
        engine.step(10_000)
        assert engine.cycle == 10_000
        assert engine.ticks_executed == 0
        assert engine.fast_forwarded_cycles == 10_000

    def test_timer_wakes_parked_component(self):
        class Parked(Component):
            def __init__(self):
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

            def idle_until(self, cycle):
                return 100 if cycle < 100 else FOREVER

        parked = Parked()
        engine = Engine([parked])
        engine.step(200)
        # Ticked at 0 (initially active), parked until 100, woke exactly
        # there, then parked forever; the gaps were fast-forwarded.
        assert parked.ticks == [0, 100]
        assert engine.ticks_executed == 2
        assert engine.fast_forwarded_cycles > 0

    def test_mid_cycle_wake_ordering(self):
        # A wake targeting an index *behind* the scan position lands next
        # cycle; one *ahead* of it lands in the same cycle — the naive
        # loop's in-cycle pipeline ordering exactly.
        log = []

        class Waker(Component):
            name = "waker"

            def __init__(self):
                self.armed = False

            def tick(self, cycle):
                log.append(("waker", cycle))
                if self.armed:
                    self.armed = False
                    downstream.wake()
                    upstream.wake()

            def idle_until(self, cycle):
                return FOREVER

        class Quiet(Component):
            def __init__(self, name):
                self.name = name

            def tick(self, cycle):
                log.append((self.name, cycle))

            def idle_until(self, cycle):
                return FOREVER

        upstream = Quiet("upstream")
        waker = Waker()
        downstream = Quiet("downstream")
        engine = Engine([upstream, waker, downstream])
        # Cycle 0 parks all three, so the downstream wake has to push its
        # index back into the live frontier mid-scan.
        engine.step(1)
        waker.armed = True
        waker.wake()
        log.clear()
        engine.step(2)
        assert log == [("waker", 1), ("downstream", 1), ("upstream", 2)]

    def test_wake_reactivates_forever_parked_component(self):
        class Reactive(Component):
            def __init__(self):
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

            def idle_until(self, cycle):
                return FOREVER

        reactive = Reactive()
        engine = Engine([reactive])
        engine.step(10)
        assert reactive.ticks == [0]
        reactive.wake()
        engine.step(10)
        assert reactive.ticks == [0, 10]

    def test_reset_restores_full_activity(self):
        class Lazy(Component):
            def __init__(self):
                self.ticks = 0

            def tick(self, cycle):
                self.ticks += 1

            def idle_until(self, cycle):
                return FOREVER

        lazy = Lazy()
        engine = Engine([lazy])
        engine.step(5)
        engine.reset()
        assert engine.cycle == 0
        assert engine.ticks_executed == 0
        assert engine.fast_forwarded_cycles == 0
        engine.step(1)
        assert lazy.ticks == 2  # once before reset, once after


class TestRunUntil:
    @pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
    def test_timeout_cap_is_exact(self, strategy):
        engine = Engine(strategy=strategy)
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=1000, check_every=64)
        # 1000 is not a multiple of 64: the final step must be clamped.
        assert engine.cycle == 1000

    @pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
    def test_condition_checked_before_first_step(self, strategy):
        engine = Engine(strategy=strategy)
        final = engine.run_until(lambda: True, max_cycles=10)
        assert final == 0
        assert engine.cycle == 0

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            Engine(strategy="warp-speed")
        with pytest.raises(ValueError):
            small_config(engine_strategy="warp-speed")

    @pytest.mark.parametrize("strategy", ["simd", "vector"])
    def test_strategy_validated_in_config(self, strategy):
        assert ENGINE_STRATEGIES == ("active", "naive")
        with pytest.raises(ValueError):
            GpuConfig(engine_strategy=strategy)


#: Runs a small-config TPC calibrate + transmit and a 2-GPU ring link
#: channel point, then reports whether numpy was ever imported.
_NO_NUMPY_SCRIPT = textwrap.dedent("""
    import sys

    from repro.channel import LinkCovertChannel, TpcCovertChannel
    from repro.config import LinkConfig, small_config

    channel = TpcCovertChannel(small_config())
    channel.calibrate()
    channel.transmit([1, 0, 1, 1])
    link = LinkCovertChannel(
        small_config(), LinkConfig(num_devices=2, topology="ring")
    )
    link.calibrate(training_symbols=4)
    link.transmit([1, 0])
    print("numpy" in sys.modules)
""")


def test_no_numpy_on_any_path():
    # numpy may well be installed; the simulator must still never import
    # it (a numpy import alone adds ~12 MB of resident memory per run).
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert result.stdout.strip() == "False", result.stderr
