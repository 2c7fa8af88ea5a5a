"""Conservation-invariant checker tests (repro.validate.invariants)."""

import tracemalloc
from pathlib import Path

import pytest

from repro.config import medium_config, small_config
from repro.gpu.device import GpuDevice
from repro.gpu.workloads import make_streaming_kernel
from repro.noc.arbiter import make_policy
from repro.noc.buffer import PacketQueue
from repro.noc.mux import Mux
from repro.noc.packet import Packet, READ, WRITE
from repro.sim.engine import FOREVER, Component, Engine
from repro.validate import InvariantChecker, InvariantViolation


def run_validated(config, kind="write", ops=16, blocks=None):
    device = GpuDevice(config)
    device.preload_region(0, 1 << 20)
    device.launch(make_streaming_kernel(
        config, kind, ops=ops, num_blocks=blocks or config.num_sms,
    ))
    device.run()
    device.assert_drained()
    return device


class TestValidatedRuns:
    def test_small_write_run_zero_violations(self):
        config = small_config(validate_enabled=True, timing_noise=0)
        device = run_validated(config, kind="write")
        checker = device.validator
        assert checker.violations == 0
        assert checker.injected > 0
        assert checker.injected == checker.delivered
        assert checker.in_flight_count == 0
        assert checker.checks_run > 0

    def test_small_read_run_zero_violations(self):
        config = small_config(validate_enabled=True)
        device = run_validated(config, kind="read")
        assert device.validator.violations == 0
        assert device.validator.delivered == device.validator.injected

    def test_write_ack_flits_path_zero_violations(self):
        # Non-posted writes: acks travel the reply subnet as real packets.
        config = small_config(validate_enabled=True, write_reply_flits=1)
        device = run_validated(config, kind="write")
        assert device.validator.violations == 0

    def test_single_fifo_reply_ablation_zero_violations(self):
        config = small_config(validate_enabled=True, reply_voq=False)
        device = run_validated(config, kind="read")
        assert device.validator.violations == 0

    def test_validated_interval_reduces_audit_count(self):
        config = small_config(validate_enabled=True, validate_interval=32)
        device = run_validated(config)
        checker = device.validator
        assert checker.violations == 0
        # Roughly one audit per 32 cycles, not one per cycle.
        assert checker.checks_run <= device.cycle // 32 + 2

    def test_validation_does_not_perturb_the_model(self):
        """Seeded runs are bit-identical with the checker on or off."""
        results = {}
        for enabled in (False, True):
            config = small_config(validate_enabled=enabled)
            device = run_validated(config, kind="write")
            results[enabled] = (
                device.cycle,
                dict(device.stats.counters),
                tuple(
                    component.state_digest()
                    for component in device.engine.components
                    if component.state_digest() is not None
                ),
            )
        assert results[False][0] == results[True][0]
        assert results[False][1] == results[True][1]
        assert results[False][2] == results[True][2]

    def test_tpc_covert_channel_with_validation(self):
        from repro.channel import TpcCovertChannel

        config = small_config(validate_enabled=True, validate_interval=8)
        channel = TpcCovertChannel(config)
        channel.calibrate()
        result = channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])
        assert result.error_rate <= 0.25  # validation must not break it

    def test_gpc_covert_channel_with_validation(self):
        from repro.channel.gpc_channel import GpcCovertChannel

        config = medium_config(validate_enabled=True, validate_interval=16)
        channel = GpcCovertChannel(config)
        channel.calibrate()
        result = channel.transmit([1, 0, 1, 0])
        assert result.error_rate <= 0.25


class LeakyQueue(PacketQueue):
    """Test double: swallows the Nth ``commit`` (a lost-flit model bug).

    ``PacketQueue`` uses ``__slots__``, so the fault is injected via a
    subclass rather than monkeypatching the bound method.
    """

    def __init__(self, name, capacity, skip_commit_at, engine):
        super().__init__(name, capacity)
        self._skip_at = skip_commit_at
        self._commits = 0
        self._engine = engine
        self.skipped_cycle = None

    def commit(self, packet):
        index = self._commits
        self._commits += 1
        if index == self._skip_at:
            self.skipped_cycle = self._engine.cycle
            return  # swallow the commit: reserved flits leak forever
        super().commit(packet)


def _bare_switch_rig(skip_commit_at=None, strategy="naive"):
    """A minimal engine: one queue -> mux -> queue, plus a checker.

    ``skip_commit_at`` drops the Nth (0-based) ``commit`` on the output
    queue — the classic lost-flit bug the checker exists to catch.  An
    ``active`` rig runs the mux's sparse tick (its input queue wakes it,
    as every consumer), so the mux parks exactly as it does inside a
    device.
    """
    engine = Engine(strategy=strategy)
    in_q = PacketQueue("rig.in", 32)
    if skip_commit_at is not None:
        out_q = LeakyQueue("rig.out", 32, skip_commit_at, engine)
    else:
        out_q = PacketQueue("rig.out", 32)
    mux = Mux("rig.mux", [in_q], out_q, width=1,
              policy=make_policy("rr", 1, seed=1))
    checker = InvariantChecker(check_every=1)
    checker.watch_queue(in_q)
    checker.watch_queue(out_q)
    checker.watch_switch(mux)
    if strategy == "active":
        mux._sparse = True
    engine.register(mux)
    engine.register(checker)
    return engine, in_q, out_q, mux, checker


class TestFaultInjection:
    def test_skipped_commit_is_caught_at_the_right_place(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig(
            skip_commit_at=0
        )
        in_q.push(Packet(kind=WRITE, address=0, flits=4, src_sm=0,
                         slice_id=0, birth_cycle=0))
        with pytest.raises(InvariantViolation) as excinfo:
            for _ in range(64):
                engine.step(1)
        violation = excinfo.value
        assert violation.kind == "reservation-leak"
        assert violation.component == "rig.out"
        # The checker runs in the same cycle the commit was dropped.
        assert out_q.skipped_cycle is not None
        assert violation.cycle == out_q.skipped_cycle

    def test_clean_rig_drains_without_violation(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig()
        in_q.push(Packet(kind=WRITE, address=0, flits=4, src_sm=0,
                         slice_id=0, birth_cycle=0))
        engine.step(16)
        assert out_q.pop().flits == 4
        assert checker.violations == 0

    def test_corrupted_used_accounting_is_caught(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig()
        in_q.push(Packet(kind=READ, address=64, flits=1, src_sm=0,
                         slice_id=0, birth_cycle=0))
        in_q._used_flits += 3  # lie about occupancy
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "used-accounting"
        assert excinfo.value.component == "rig.in"

    def test_capacity_overflow_is_caught(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig()
        out_q._reserved_flits = out_q.capacity_flits + 1
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "capacity"

    def test_progress_without_head_is_caught(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig()
        mux._progress[0] = 2
        mux._reserved[0] = True
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "progress-consistency"
        assert excinfo.value.component == "rig.mux"


    @pytest.mark.parametrize("corrupt", [
        lambda mux: mux._live.remove(0),  # live port dropped
        lambda mux: mux._live.append(0),  # port listed twice
        lambda mux: mux._heads.__setitem__(0, None),  # stale head
        lambda mux: setattr(mux, "_max_flits", 1),  # bound too low
    ], ids=["dropped", "duplicated", "stale-head", "low-bound"])
    def test_corrupted_live_list_is_caught(self, corrupt):
        engine, in_q, out_q, mux, checker = _bare_switch_rig()
        in_q.push(Packet(kind=WRITE, address=0, flits=4, src_sm=0,
                         slice_id=0, birth_cycle=0))
        corrupt(mux)
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "live-consistency"
        assert excinfo.value.component == "rig.mux"


    def test_lost_wakeup_is_caught(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig(
            strategy="active"
        )
        in_q.push(Packet(kind=WRITE, address=0, flits=4, src_sm=0,
                         slice_id=0, birth_cycle=0))
        engine._active.discard(mux._engine_index)  # the push wake is lost
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "park-consistency"
        assert excinfo.value.component == "rig.mux"

    def test_output_blocked_park_passes_the_audit(self):
        engine, in_q, out_q, mux, checker = _bare_switch_rig(
            strategy="active"
        )
        out_q.push(Packet(kind=WRITE, address=0, flits=30, src_sm=0,
                          slice_id=0, birth_cycle=0))
        in_q.push(Packet(kind=WRITE, address=64, flits=4, src_sm=0,
                         slice_id=0, birth_cycle=0))
        engine.step(8)
        assert mux._blocked
        assert mux._engine_index not in engine._active
        out_q.pop()  # frees space and wakes the parked mux
        engine.step(8)
        assert not in_q and out_q.head().flits == 4
        assert checker.checks_run == 16 and checker.violations == 0

    @pytest.mark.parametrize("blocked", [False, True])
    def test_parked_consumer_holding_input(self, blocked):
        engine = Engine(strategy="active")
        queue = PacketQueue("drain.in", 8)
        drain = engine.register(_Drain(queue))
        checker = InvariantChecker()
        checker.watch_consumer(drain, queue)
        engine.register(checker)
        engine.step(2)
        assert drain._engine_index not in engine._active  # parked, empty
        queue.push(Packet(kind=READ, address=0, flits=1, src_sm=0,
                          slice_id=0, birth_cycle=0))
        assert drain._engine_index in engine._active  # the commit woke it
        engine._active.discard(drain._engine_index)  # lose that wake
        drain._blocked = blocked
        if blocked:  # waiting on downstream space: a legitimate park
            engine.step(1)
            assert checker.violations == 0
            return
        with pytest.raises(InvariantViolation) as excinfo:
            engine.step(1)
        assert excinfo.value.kind == "park-consistency"
        assert excinfo.value.component == "drain"


class _Drain(Component):
    """A portless consumer: pops its queue whenever it holds a packet."""

    name = "drain"

    def __init__(self, queue):
        self.queue = queue
        self._blocked = False
        queue.attach_consumer(self)

    def tick(self, cycle):
        if self.queue:
            self.queue.pop()

    def idle_until(self, cycle):
        return None if self.queue else FOREVER


class TestConservationHooks:
    def _packet(self, uid_hint=0):
        return Packet(kind=READ, address=uid_hint * 128, flits=1,
                      src_sm=0, slice_id=0, birth_cycle=0)

    def test_double_delivery_is_caught(self):
        checker = InvariantChecker()
        packet = self._packet()
        checker.note_inject(packet, cycle=0)
        reply = packet.make_reply(flits=4, cycle=5)
        checker.note_deliver(reply, cycle=9)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.note_deliver(reply, cycle=10)
        assert excinfo.value.kind == "double-delivery"
        assert excinfo.value.cycle == 10

    def test_duplicate_injection_is_caught(self):
        checker = InvariantChecker()
        packet = self._packet()
        checker.note_inject(packet, cycle=0)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.note_inject(packet, cycle=1)
        assert excinfo.value.kind == "duplicate-injection"

    def test_undelivered_packets_fail_the_drain_check(self):
        checker = InvariantChecker()
        checker.note_inject(self._packet(0), cycle=0)
        checker.note_inject(self._packet(1), cycle=2)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_drained(cycle=100)
        assert excinfo.value.kind == "undelivered"
        assert "2 packet(s)" in excinfo.value.detail

    def test_reset_clears_conservation_state(self):
        checker = InvariantChecker()
        checker.note_inject(self._packet(), cycle=0)
        checker.reset()
        assert checker.in_flight_count == 0
        assert checker.injected == 0
        checker.check_drained(cycle=0)  # no violation after reset


class TestDisabledCostsNothing:
    def test_disabled_device_has_no_checker(self, small_cfg):
        device = GpuDevice(small_cfg)
        assert device.validator is None
        names = [c.name for c in device.engine.components]
        assert "validate.checker" not in names

    def test_disabled_hot_path_allocates_nothing_from_validate(self):
        """Same allocation-guard idiom as the telemetry hot-path test."""
        import repro.validate as validate_pkg

        config = small_config(validate_enabled=False)
        device = GpuDevice(config)
        device.preload_region(0, 1 << 18)
        device.launch(make_streaming_kernel(config, "write", ops=4,
                                            num_blocks=2))
        device.run()  # warm up caches/allocators
        device.launch(make_streaming_kernel(config, "write", ops=4,
                                            num_blocks=2))
        tracemalloc.start()
        device.run()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        validate_dir = str(Path(validate_pkg.__file__).parent)
        offenders = [
            stat for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.startswith(validate_dir)
        ]
        assert offenders == []
