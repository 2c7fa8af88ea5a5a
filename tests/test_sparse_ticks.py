"""Sparse mux/crossbar ticks vs the scalar reference, switch by switch.

Every ``active`` device runs its muxes and crossbars through the sparse
live-input ticks, while ``naive`` devices keep the scalar ticks as the
reference.  The device-
level fingerprint tests in ``test_engine_active.py`` only reach the
policies and widths the default configs use; these tests drive a single
switch with a seeded bursty workload under every arbitration policy and
compare the two tick paths cycle by cycle:

* the switch's state digest (progress, reservations, policy state and
  every attached queue) after each cycle;
* the order and cycle in which packets leave the outputs;
* the final flit/packet counters;
* the telemetry each side emits: the GRANT/XFER event stream (packet
  uids renumbered by first appearance) and every link series.

The sparse side runs on an ``active`` engine with reactive wake hooks,
so parking, wakes and quiescence fast-forward are all on the path under
test.  Its two tick paths are counted: a lone live input under a
flit-invariant policy goes through ``_run_sole``, every other tick
through ``_tick_sparse``, and each case asserts which of them ran.
"""

import random

import pytest

from repro.config import GpuConfig
from repro.gpu.device import GpuDevice
from repro.gpu.workloads import make_streaming_kernel
from repro.noc.arbiter import make_policy
from repro.noc.buffer import PacketQueue
from repro.noc.crossbar import Crossbar
from repro.noc.mux import Mux
from repro.noc.packet import Packet, WRITE
from repro.sim.engine import FOREVER, Component, Engine
from repro.sim.stats import StatsRegistry
from repro.telemetry.hub import Telemetry
from repro.validate import InvariantChecker
from tests.test_telemetry import _normalized_events

POLICIES = ("rr", "crr", "srr", "age", "fixed", "random")

#: Cycles the source keeps injecting; the run continues until drained.
_INJECT_CYCLES = 400
_RUN_CYCLES = 900


class _Source(Component):
    """Seeded bursty injector.

    Every third 40-cycle phase only port 0 injects, so a lone long packet
    has the switch to itself (the single-candidate grant); the other
    phases contend on every port.  The draw sequence does not
    depend on whether a push fits, so both builds see identical traffic.
    """

    name = "source"

    def __init__(self, queues, seed, num_outputs):
        self.queues = queues
        self.num_outputs = num_outputs
        self.rng = random.Random(seed)

    def tick(self, cycle):
        self._until = None if cycle + 1 < _INJECT_CYCLES else FOREVER
        if cycle >= _INJECT_CYCLES:
            return
        rng = self.rng
        solo = (cycle // 40) % 3 == 0
        for port, queue in enumerate(self.queues):
            if rng.random() >= 0.35 or (solo and port):
                continue
            queue.push(Packet(
                kind=WRITE,
                address=rng.randrange(1 << 16),
                flits=rng.choice((1, 1, 2, 4, 7)),
                src_sm=port,
                slice_id=rng.randrange(self.num_outputs),
                group_id=rng.randrange(3),
                birth_cycle=max(0, cycle - rng.randrange(8)),
            ))


class _Sink(Component):
    """Pops one packet per output every ``every`` cycles (backpressure)."""

    name = "sink"

    def __init__(self, queues, every=3):
        self.queues = queues
        self.every = every
        self.log = []
        for queue in queues:
            queue.attach_consumer(self)

    def tick(self, cycle):
        if not cycle % self.every:
            for out, queue in enumerate(self.queues):
                if queue:
                    self.log.append((cycle, out, queue.pop().signature()))
        if any(self.queues):
            self._until = cycle + self.every - cycle % self.every
        else:
            self._until = FOREVER


def _run_lockstep(build, run_cycles=_RUN_CYCLES):
    """Run the scalar and sparse builds side by side; compare each cycle."""
    scalar = build(sparse=False)
    sparse = build(sparse=True)
    for _ in range(run_cycles):
        scalar["engine"].step(1)
        sparse["engine"].step(1)
        cycle = scalar["engine"].cycle
        assert sparse["engine"].cycle == cycle
        assert (
            sparse["switch"].state_digest() == scalar["switch"].state_digest()
        ), f"digests diverge after cycle {cycle - 1}"
    assert sparse["sink"].log == scalar["sink"].log
    assert sparse["stats"].snapshot() == scalar["stats"].snapshot()
    assert _telemetry(sparse["hub"]) == _telemetry(scalar["hub"])
    # The workload drained, and it was heavy enough to mean something.
    assert not any(q for q in scalar["switch"].inputs)
    assert len(scalar["sink"].log) > 100
    return scalar, sparse


def _count_paths(switch):
    """Count the sparse switch's sole-input runs and general ticks.

    Each call is also logged as ``(outputs committed to, packets left
    at the inputs, blocked afterwards)`` for the crossbar cases below.
    """
    calls = {"_run_sole": [], "_tick_sparse": []}
    outputs = getattr(switch, "outputs", None) or [switch.output]
    for name, log in calls.items():
        method = getattr(switch, name)

        def counted(*args, _method=method, _log=log):
            before = [len(q) for q in outputs]
            _method(*args)
            fed = sum(len(q) > n for q, n in zip(outputs, before))
            left = sum(len(q) for q in switch.inputs)
            _log.append((fed, left, switch._blocked))

        setattr(switch, name, counted)
    return calls


def _assert_paths_ran(built, policy_name):
    """Both sparse paths ran; the sole run only under its contract."""
    paths = built["paths"]
    assert paths["_tick_sparse"], "the general sparse tick never ran"
    if make_policy(policy_name, 2).flit_invariant:
        assert paths["_run_sole"], "no sole-input run"
    else:  # RANDOM draws and SRR restricts even a sole candidate
        assert not paths["_run_sole"]


def _telemetry(hub):
    """Normalized event stream and per-epoch flits of every link."""
    assert hub.tracer.dropped == 0
    links = {series.name: series.flits for series in hub.timeline.links}
    return _normalized_events(hub), links


class _LiveMeter(Component):
    """Samples how many mux inputs are nonempty each injecting cycle."""

    name = "live-meter"

    def __init__(self, queues):
        self.queues = queues
        self.samples = []

    def tick(self, cycle):
        if cycle < _INJECT_CYCLES:
            self.samples.append(sum(1 for q in self.queues if q))
        self._until = None if cycle + 1 < _INJECT_CYCLES else FOREVER


def _mux_builder(policy_name, num_inputs, width, output_flits):
    """Build function for :func:`_run_lockstep` around one :class:`Mux`."""

    def build(sparse):
        stats = StatsRegistry()
        inputs = [PacketQueue(f"in{i}", 24) for i in range(num_inputs)]
        output = PacketQueue("out", output_flits)
        mux = Mux("m", inputs, output, width,
                  make_policy(policy_name, num_inputs, seed=7), stats)
        hub = Telemetry()
        mux.attach_telemetry(hub)
        paths = None
        if sparse:
            mux._sparse = True
            paths = _count_paths(mux)
        source = _Source(inputs, seed=11, num_outputs=1)
        meter = _LiveMeter(inputs)
        sink = _Sink([output])
        engine = Engine([source, meter, mux, sink],
                        strategy="active" if sparse else "naive")
        return {"engine": engine, "switch": mux, "sink": sink,
                "stats": stats, "meter": meter, "hub": hub, "paths": paths}

    return build


class TestSparseMux:
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_sparse_tick_matches_scalar(self, policy_name, width):
        scalar, sparse = _run_lockstep(
            _mux_builder(policy_name, 3, width, 16)
        )
        # Parked while idle: the sparse side skipped no-op mux ticks.
        assert sparse["engine"].ticks_executed < scalar["engine"].ticks_executed
        _assert_paths_ran(sparse, policy_name)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_reply_mux_shape_matches_scalar(self, policy_name):
        """A reply-mux-shaped switch: many live inputs, width 3.

        Sixteen oversubscribed inputs keep most ports live every cycle,
        so a tick makes several grants over a long candidate list.  The
        10-flit output, drained one packet per three cycles, is nearly
        full: a reservation made mid-tick routinely leaves later 4- and
        7-flit heads unable to fit, and a 1- or 2-flit packet completes
        mid-tick and exposes its port's next head.  Those are the paths
        where the sparse tick patches its candidate list instead of
        rebuilding it.
        """
        num_inputs = 16
        scalar, sparse = _run_lockstep(
            _mux_builder(policy_name, num_inputs, 3, 10), run_cycles=2500
        )
        samples = scalar["meter"].samples
        assert sum(samples) / len(samples) >= 0.75 * num_inputs
        _assert_paths_ran(sparse, policy_name)


#: Crossbar (output width, input width) shapes.  Width 1 grants one
#: flit per output per cycle; (8, 8) lets a lone packet cross in one
#: collapsed round; (3, 2) has the input budget cut a run short of the
#: output budget.
XBAR_SHAPES = [(1, 2), (8, 8), (3, 2)]


def _crossbar_builder(policy_name, width=1, input_width=2,
                      output_flits=12, source=None, every=3):
    """Build function for :func:`_run_lockstep` around one :class:`Crossbar`.

    ``source(inputs)`` replaces the seeded bursty injector.
    """

    def build(sparse):
        stats = StatsRegistry()
        inputs = [PacketQueue(f"in{i}", 24) for i in range(4)]
        outputs = [PacketQueue(f"out{i}", output_flits) for i in range(3)]
        xbar = Crossbar(
            "x", inputs, outputs, route=lambda p: p.slice_id,
            width=width, input_width=input_width, policy_name=policy_name,
            seed=5, stats=stats,
        )
        hub = Telemetry()
        xbar.attach_telemetry(hub)
        paths = None
        if sparse:
            xbar._sparse = True
            paths = _count_paths(xbar)
        injector = (
            _Source(inputs, seed=13, num_outputs=len(outputs))
            if source is None else source(inputs)
        )
        sink = _Sink(outputs, every)
        engine = Engine([injector, xbar, sink],
                        strategy="active" if sparse else "naive")
        return {"engine": engine, "switch": xbar, "sink": sink,
                "stats": stats, "hub": hub, "paths": paths}

    return build


class _SoloSource(Component):
    """Feeds input 0 alone from a repeating ``(flits, output)`` pattern.

    Each cycle it pushes packets until the queue refuses one, and the
    pattern resumes there once room frees.  No other input is ever live.
    """

    name = "solo-source"

    def __init__(self, queues, pattern):
        self.queue = queues[0]
        self.pattern = pattern
        self.sent = 0

    def tick(self, cycle):
        self._until = None if cycle + 1 < _INJECT_CYCLES else FOREVER
        if cycle >= _INJECT_CYCLES:
            return
        while True:
            flits, out = self.pattern[self.sent % len(self.pattern)]
            if not self.queue.push(Packet(
                kind=WRITE, address=self.sent, flits=flits, src_sm=0,
                slice_id=out, birth_cycle=cycle,
            )):
                return
            self.sent += 1


class TestSparseCrossbar:
    @pytest.mark.parametrize("width,input_width", XBAR_SHAPES)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_sparse_tick_matches_scalar(self, policy_name, width,
                                        input_width):
        scalar, sparse = _run_lockstep(
            _crossbar_builder(policy_name, width, input_width)
        )
        # Every output carried traffic, so per-output arbitration ran.
        assert {out for _, out, _ in scalar["sink"].log} == {0, 1, 2}
        # Parked while empty: the sparse side skipped idle crossbar ticks.
        assert sparse["engine"].ticks_executed < scalar["engine"].ticks_executed
        _assert_paths_ran(sparse, policy_name)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_sole_run_feeds_two_outputs_in_one_tick(self, policy_name):
        """Consecutive packets of the lone input alternate outputs.

        An input budget of 4 against 2 flits per output lets a tick send
        1- and 2-flit packets to both outputs, so each output's budget
        must be kept apart: one shared budget would stop at 2 flits.
        """
        pattern = [(1, 0), (1, 1), (2, 0), (1, 1), (1, 0), (2, 1)]
        scalar, sparse = _run_lockstep(_crossbar_builder(
            policy_name, width=2, input_width=4,
            source=lambda inputs: _SoloSource(inputs, pattern), every=1,
        ))
        assert {out for _, out, _ in scalar["sink"].log} == {0, 1}
        runs = sparse["paths"]["_run_sole"]
        if make_policy(policy_name, 2).flit_invariant:
            assert any(fed == 2 for fed, _, _ in runs)
        else:
            assert not runs

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_sole_run_stops_at_a_next_head_that_does_not_fit(
        self, policy_name
    ):
        """A completion exposes a head that does not fit its output.

        Each output holds 5 flits and every packet is 3, so after a
        packet commits the next one waits for the sink, with budget left
        (8 per input and output).  That tick granted, so it must not set
        ``_blocked``; the next one, with nothing drained, must.
        """
        pattern = [(3, 0), (3, 0), (3, 1)]
        scalar, sparse = _run_lockstep(_crossbar_builder(
            policy_name, width=8, input_width=8, output_flits=5,
            source=lambda inputs: _SoloSource(inputs, pattern), every=4,
        ))
        runs = sparse["paths"]["_run_sole"]
        if make_policy(policy_name, 2).flit_invariant:
            # Fed one output, packets left, and still unblocked ...
            assert (1, True, False) in {
                (fed, left > 0, blocked) for fed, left, blocked in runs
            }
            # ... and a later run found the head blocked.
            assert (0, True, True) in {
                (fed, left > 0, blocked) for fed, left, blocked in runs
            }
        else:
            assert not runs


class TestLiveLists:
    """The input queues keep each switch's live list exact.

    The lockstep digests leave ``_live``/``_heads`` out (they are derived
    from the queues), so these runs audit them directly.
    """

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("switch", ["mux", "crossbar"])
    def test_queues_keep_live_list(self, switch, sparse):
        """Audit every cycle of a busy run, scalar and sparse tick alike."""
        if switch == "mux":  # reply-mux shape: 16 mostly-live inputs
            build = _mux_builder("rr", 16, 3, 10)
        else:
            build = _crossbar_builder("rr")
        built = build(sparse=sparse)
        checker = InvariantChecker()
        checker.watch_switch(built["switch"])
        built["engine"].register(checker)
        built["engine"].step(_RUN_CYCLES)
        assert checker.checks_run == _RUN_CYCLES
        assert checker.violations == 0
        assert len(built["sink"].log) > 100

    def test_reset_mid_traffic_full_volta(self):
        config = GpuConfig()

        def launch(device):
            device.preload_region(0, 1 << 20)
            device.launch(make_streaming_kernel(
                config, "read", ops=3, num_blocks=config.num_sms,
            ))
            device.launch(make_streaming_kernel(
                config, "write", ops=3, base=1 << 20,
                num_blocks=config.num_sms,
            ))

        def switches(device):
            return [*device.tpc_muxes, *device.gpc_muxes,
                    device.request_xbar, *device.reply_muxes]

        def finish(device):
            device.run()
            return device.engine.cycle, device.stats.snapshot()

        reused = GpuDevice(config)
        launch(reused)
        reused.engine.step(400)
        assert any(switch._live for switch in switches(reused)), (
            "no switch had a live input when the device was reset"
        )
        reused.engine.reset()
        for switch in switches(reused):
            assert switch._live == [], switch.name
            assert all(head is None for head in switch._heads), switch.name
        launch(reused)
        after_reset = finish(reused)

        fresh = GpuDevice(config)
        launch(fresh)
        assert after_reset == finish(fresh)
