"""``Engine.run_until`` crosses parked spans in one step, cycle-exactly.

When a check finds the condition false, no component active and the
earliest timer more than ``check_every`` cycles away, the active engine
takes one ``step`` to the last check point at or before that timer
instead of one step per ``check_every`` window.  These tests pin the
three things that must hold:

* the returned cycle (and a timeout's final cycle) equals the naive
  reference's, which checks every window;
* the number of ``Engine.step`` calls no longer grows with the gap;
* the gap shows up as one long fast-forward span on the telemetry hub.
"""

import pytest

from repro.config import small_config
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.warp import READ, MemOp, WaitCycles
from repro.sim.engine import FOREVER, Component, Engine
from repro.telemetry.hub import Telemetry

STRATEGIES = ("naive", "active")


class _Alarm(Component):
    """Busy for one cycle, then parked behind a timer at ``wake_at``."""

    name = "alarm"

    def __init__(self, wake_at):
        self.wake_at = wake_at
        self.fired = False

    def tick(self, cycle):
        if cycle >= self.wake_at:
            self.fired = True
        self._until = FOREVER if self.fired else self.wake_at


def _count_steps(engine):
    """Wrap ``engine.step`` in place; return the live call counter."""
    calls = [0]
    step = engine.step

    def counted(cycles=1):
        calls[0] += 1
        return step(cycles)

    engine.step = counted
    return calls


class TestStrideMatchesNaive:
    @pytest.mark.parametrize("check_every", [1, 16, 32])
    @pytest.mark.parametrize("wake_at", [5, 17, 100, 5_003, 5_008, 40_000])
    def test_same_cycle_and_constant_steps(self, wake_at, check_every):
        returned = {}
        steps = {}
        for strategy in STRATEGIES:
            alarm = _Alarm(wake_at)
            engine = Engine([alarm], strategy=strategy)
            calls = _count_steps(engine)
            returned[strategy] = engine.run_until(
                lambda: alarm.fired, check_every=check_every
            )
            steps[strategy] = calls[0]
        assert returned["active"] == returned["naive"]
        # One window to park, one stride, one window to fire.
        assert steps["active"] <= 3

    @pytest.mark.parametrize("max_cycles", [1_000, 1_001])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_timeout_budget_stays_exact(self, strategy, max_cycles):
        engine = Engine([_Alarm(5_000)], strategy=strategy)
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=max_cycles,
                             check_every=16)
        assert engine.cycle == max_cycles

    def test_no_stride_without_a_timer(self):
        engine = Engine()
        calls = _count_steps(engine)
        engine.run_until(lambda: engine.cycle >= 160, check_every=16)
        assert engine.cycle == 160
        assert calls[0] == 10

    def test_parked_gap_is_one_fast_forward_span(self):
        hub = Telemetry()
        alarm = _Alarm(5_003)
        engine = Engine([alarm])
        engine.on_fast_forward = hub.note_fast_forward
        engine.run_until(lambda: alarm.fired, check_every=16)
        # [1, 16) ends the first window, [16, 4_992) is the stride to
        # the last check point before the timer, [4_992, 5_003) leads
        # into the cycle it fires.
        assert hub.fast_forwards == [(1, 16), (16, 4_992), (4_992, 5_003),
                                     (5_004, 5_008)]


class _Metronome(Component):
    """An observer that wakes every ``period`` cycles and changes nothing."""

    name = "metronome"
    observer = True

    def __init__(self, period):
        self.period = period

    def tick(self, cycle):
        self._until = (cycle // self.period + 1) * self.period


class TestObserverTimers:
    @pytest.mark.parametrize("wake_at", [100, 5_003, 40_000])
    def test_observer_timers_do_not_bound_the_stride(self, wake_at):
        returned = {}
        steps = {}
        for strategy in STRATEGIES:
            alarm = _Alarm(wake_at)
            metronome = _Metronome(64)
            engine = Engine([alarm, metronome], strategy=strategy)
            calls = _count_steps(engine)
            returned[strategy] = engine.run_until(
                lambda: alarm.fired, check_every=16
            )
            steps[strategy] = calls[0]
        assert returned["active"] == returned["naive"]
        assert steps["active"] <= 3

    def test_only_observer_timers_step_one_window(self):
        engine = Engine([_Metronome(64)])
        calls = _count_steps(engine)
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=160, check_every=16)
        assert engine.cycle == 160
        assert calls[0] == 10


def _sleepy_program(gap):
    def program(ctx):
        yield MemOp(READ, [ctx.warp_id * 128])
        yield WaitCycles(gap)
        yield MemOp(READ, [ctx.warp_id * 128])

    return program


def _run_sleepy(strategy, gap, **overrides):
    device = GpuDevice(small_config(
        timing_noise=0, engine_strategy=strategy, **overrides
    ))
    device.preload_region(0, 4096)
    calls = _count_steps(device.engine)
    kernel = Kernel(_sleepy_program(gap), num_blocks=2, warps_per_block=2,
                    name="sleepy")
    finish = device.run_kernels([kernel])
    return device, finish, calls[0]


class TestDeviceStride:
    def test_sleeping_warps_match_naive_in_constant_steps(self):
        steps = {}
        for gap in (5_000, 50_000):
            runs = {
                strategy: _run_sleepy(strategy, gap)
                for strategy in STRATEGIES
            }
            naive, active = runs["naive"], runs["active"]
            assert active[1] == naive[1]
            assert active[0].engine.cycle == naive[0].engine.cycle
            assert naive[1]["sleepy"] > gap
            steps[gap] = active[2]
        # The step count does not grow with the gap: O(1) per sleep
        # (check-point alignment moves it by at most one).
        assert abs(steps[50_000] - steps[5_000]) <= 1
        assert max(steps.values()) < 12

    def test_telemetry_takes_as_many_steps(self):
        # The probe parks while every metered queue is empty, and its
        # epoch timers do not bound a stride, so a sleep costs a
        # telemetry-on run no extra steps.
        for gap in (5_000, 50_000):
            _, finish_off, steps_off = _run_sleepy("active", gap)
            device, finish_on, steps_on = _run_sleepy(
                "active", gap, telemetry_enabled=True
            )
            assert finish_on == finish_off
            assert steps_on == steps_off
            longest = max(
                to - frm for frm, to in device.telemetry.fast_forwards
            )
            assert longest > gap - 2 * device.config.telemetry_epoch_cycles

    def test_sleep_is_one_span_on_the_hub(self):
        # An epoch longer than the run keeps the timeline probe, which
        # wakes on every epoch boundary, out of the sleep.
        device, _, _ = _run_sleepy(
            "active", 5_000, telemetry_enabled=True,
            telemetry_epoch_cycles=1 << 16,
        )
        longest = max(to - frm for frm, to in device.telemetry.fast_forwards)
        assert longest > 5_000 - 2 * 16
