"""The activity contract: every tick leaves its park horizon in ``_until``.

Under the ``active`` engine each ``Component.tick`` ends by writing the
cycle it next has work at (``None`` busy, a cycle, or ``FOREVER``) to
``self._until``, and the engine reads that attribute right after the
tick.  These tests pin the contract down from three sides:

* the reference functions below are the horizons the components used to
  report through a separate ``idle_until(cycle)`` call, kept verbatim as
  the oracle: seeded TPC, GPC, 2-device ring link and DRAM-miss runs
  check ``_until`` against them after every single tick;
* a wrapper that drops ``tick``'s return value (as a tracer does) must
  leave tick counts, fast-forwarded cycles and results unchanged — the
  horizon is an attribute precisely so that wrapping cannot lose it;
* packets built positionally on the hot path equal keyword-built ones
  field by field.
"""

import collections
import functools

import pytest

from repro.config import LinkConfig, small_config
from repro.gpu.device import GpuDevice
from repro.gpu.dram import MemoryController
from repro.gpu.kernel import Kernel
from repro.gpu.l2slice import L2Slice
from repro.gpu.reply_path import GpcReplyDistributor
from repro.gpu.scheduler import ThreadBlockScheduler
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import (
    DONE,
    ISSUING,
    READ,
    SLEEP,
    WAIT_MEM,
    WRITE,
    MemOp,
    WarpContext,
)
from repro.interconnect.link import FabricIngress, LinkPipe
from repro.noc.buffer import PacketQueue
from repro.noc.crossbar import Crossbar
from repro.noc.mux import Mux
from repro.noc.packet import Packet
from repro.sim.engine import FOREVER, Component, Engine
from repro.telemetry.timeline import TimelineProbe
from repro.validate.invariants import InvariantChecker


# ---------------------------------------------------------------------- #
# Reference horizons: what each component reported after a tick.
# ---------------------------------------------------------------------- #
def _switch(switch, cycle):
    return FOREVER if switch._blocked or not switch._live else None


def _l2_slice(l2, cycle):
    if l2.request_queue or l2._mshr_ready:
        return None
    if l2._pipeline:
        ready = l2._pipeline[0][0]
        return None if ready <= cycle else ready
    return FOREVER


def _sm(sm, cycle):
    wake = FOREVER
    blocked = sm._blocked
    for warp in sm.warps:
        state = warp.state
        if state == SLEEP:
            if warp.wake_cycle < wake:
                wake = warp.wake_cycle
        elif state == ISSUING and blocked:
            continue
        elif state != WAIT_MEM and state != DONE:
            return None
    for ready, _ in sm._l1_returns:
        if ready < wake:
            wake = ready
    return wake


def _scheduler(scheduler, cycle):
    for stream in scheduler.streams:
        running = stream.running
        if running is None:
            if stream.pending:
                return None
        elif running.done:
            return None
        else:
            for block in running.blocks:
                if block.sm_id is None:
                    return None
    for resident in scheduler._resident:
        for block in resident:
            if block.done:
                return None
    return FOREVER


def _controller(mc, cycle):
    wake = FOREVER
    for ready, _, _ in mc._in_flight:
        if ready < wake:
            wake = ready
    if mc._queue:
        address = mc._queue[0][0]
        bank = (address // mc.ROW_BYTES) % mc.NUM_BANKS
        bank_ready = mc._bank_ready.get(bank, 0)
        if bank_ready <= cycle:
            return None
        if bank_ready < wake:
            wake = bank_ready
    return wake


def _reply(distributor, cycle):
    return None if distributor.input_queue else FOREVER


def _link_pipe(pipe, cycle):
    nxt = FOREVER
    if pipe._in_flight:
        nxt = pipe._in_flight[0][0]
    if pipe.tx:
        if cycle < pipe._busy_until:
            nxt = min(nxt, pipe._busy_until)
        elif pipe.rx.can_reserve(pipe.tx.head().flits):
            return None
    if nxt == FOREVER:
        return FOREVER
    return nxt if nxt > cycle else None


def _ingress(shim, cycle):
    return None if shim.queue else FOREVER


def _probe(probe, cycle):
    # Under the active engine the timeline is marked parked exactly when
    # this tick's flush left every metered queue empty (a parked probe
    # only ticks again after a wake that clears the mark).
    if probe.timeline.probe_parked:
        return FOREVER
    return probe._next_flush


def _checker(checker, cycle):
    return None if checker._next_check <= cycle + 1 else checker._next_check


REFERENCE = {
    Mux: _switch,
    Crossbar: _switch,
    L2Slice: _l2_slice,
    StreamingMultiprocessor: _sm,
    ThreadBlockScheduler: _scheduler,
    MemoryController: _controller,
    GpcReplyDistributor: _reply,
    LinkPipe: _link_pipe,
    FabricIngress: _ingress,
    TimelineProbe: _probe,
    InvariantChecker: _checker,
}


def _model_components():
    """Every ``Component`` subclass the package defines."""
    found = set()
    pending = [Component]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in found:
                found.add(sub)
            pending.append(sub)
    return found


def test_every_component_class_has_a_reference():
    assert _model_components() == set(REFERENCE)


@pytest.fixture
def checked_ticks(monkeypatch):
    """Check ``_until`` against the reference after every tick.

    Wraps the ``tick`` of every component an engine registers; returns
    the per-class count of checked ticks.
    """
    checked = collections.Counter()
    register = Engine.register

    def register_checked(engine, component):
        reference = REFERENCE.get(type(component))
        if reference is not None:
            tick = component.tick

            def tick_checked(cycle):
                tick(cycle)
                expected = reference(component, cycle)
                assert component._until == expected, (
                    f"{component.name} at cycle {cycle}: _until "
                    f"{component._until!r}, reference {expected!r}"
                )
                checked[type(component)] += 1

            component.tick = tick_checked
        return register(engine, component)

    monkeypatch.setattr(Engine, "register", register_checked)
    return checked


def _tpc_run(config):
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(config)
    channel.calibrate(training_symbols=4)
    result = channel.transmit([1, 0, 1, 1, 0, 1, 0, 0])
    return result.cycles, result.received_symbols


def _gpc_run(config):
    from repro.channel import GpcCovertChannel

    channel = GpcCovertChannel.all_channels(config)
    channel.calibrate(training_symbols=2)
    result = channel.transmit([1, 0, 0, 1])
    return result.cycles, result.received_symbols


def _link_run(config):
    from repro.channel.link_channel import LinkCovertChannel

    channel = LinkCovertChannel(
        config, LinkConfig(num_devices=2, topology="ring")
    )
    channel.calibrate(training_symbols=2)
    result = channel.transmit([1, 0, 1, 0])
    return result.cycles, result.received_symbols


def _dram_miss_run(config):
    """Readers and writers over cold lines: every first touch misses."""
    device = GpuDevice(config)

    def reader(ctx):
        for i in range(12):
            yield MemOp(READ, [(ctx.block_id * 64 + i) * 128])

    def writer(ctx):
        for i in range(12):
            yield MemOp(WRITE, [(4096 + ctx.block_id * 64 + i) * 256])

    device.launch(Kernel(reader, num_blocks=4, warps_per_block=2,
                         name="reader"))
    device.launch(Kernel(writer, num_blocks=4, warps_per_block=2,
                         name="writer"))
    device.run()
    return device.engine.cycle, device.stats.snapshot()


_SHARED = {Mux, Crossbar, L2Slice, StreamingMultiprocessor,
           ThreadBlockScheduler, GpcReplyDistributor}

RUNS = [
    pytest.param(
        _tpc_run,
        dict(telemetry_enabled=True, validate_enabled=True),
        _SHARED | {TimelineProbe, InvariantChecker},
        id="tpc-observed",
    ),
    pytest.param(_gpc_run, {}, _SHARED, id="gpc"),
    pytest.param(_link_run, {}, _SHARED | {LinkPipe, FabricIngress},
                 id="link-ring"),
    pytest.param(_dram_miss_run, dict(write_reply_flits=1),
                 _SHARED | {MemoryController}, id="dram-miss"),
    pytest.param(_dram_miss_run, dict(write_reply_flits=0),
                 _SHARED | {MemoryController}, id="dram-miss-posted"),
]


@pytest.mark.parametrize("run, overrides, classes", RUNS)
def test_horizon_matches_reference_after_every_tick(
    checked_ticks, run, overrides, classes
):
    run(small_config(engine_strategy="active", **overrides))
    assert classes <= set(checked_ticks)


# ---------------------------------------------------------------------- #
# A tick wrapper that drops return values (the tracer's shape).
# ---------------------------------------------------------------------- #
def _engine_totals(monkeypatch, run, config):
    engines = []
    init = Engine.__init__

    def recording_init(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        engines.append(engine)

    monkeypatch.setattr(Engine, "__init__", recording_init)
    result = run(config)
    monkeypatch.setattr(Engine, "__init__", init)
    return (
        result,
        sum(engine.ticks_executed for engine in engines),
        sum(engine.fast_forwarded_cycles for engine in engines),
    )


def _wrap_every_tick(monkeypatch):
    for cls in _model_components():
        if "tick" not in cls.__dict__:
            continue
        original = cls.__dict__["tick"]

        @functools.wraps(original)
        def tick(component, cycle, _original=original):
            _original(component, cycle)  # the result is dropped

        monkeypatch.setattr(cls, "tick", tick)


@pytest.mark.parametrize("run", [_tpc_run, _gpc_run, _link_run],
                         ids=["tpc", "gpc", "link-ring"])
def test_tick_wrapper_parks_the_same_components(monkeypatch, run):
    config = small_config(engine_strategy="active")
    bare = _engine_totals(monkeypatch, run, config)
    _wrap_every_tick(monkeypatch)
    wrapped = _engine_totals(monkeypatch, run, config)
    assert wrapped == bare
    _, _, fast_forwarded = bare
    assert fast_forwarded > 0  # components did park


# ---------------------------------------------------------------------- #
# Positional packet construction.
# ---------------------------------------------------------------------- #
def _fields(packet):
    return (packet.signature(), packet.is_reply, packet.req_uid,
            packet.warp_ref)


def test_make_reply_equals_a_keyword_built_reply():
    warp = object()
    request = Packet(kind=WRITE, address=0x1280, flits=3, src_sm=7,
                     slice_id=5, warp_ref=warp, group_id=42,
                     birth_cycle=11, src_device=1, dst_device=2)
    reply = request.make_reply(4, 90)
    expected = Packet(kind=WRITE, address=0x1280, flits=4, src_sm=7,
                      slice_id=5, is_reply=True, warp_ref=warp,
                      group_id=42, birth_cycle=90, src_device=1,
                      dst_device=2, req_uid=request.uid)
    assert _fields(reply) == _fields(expected)
    assert reply.warp_ref is warp
    assert reply.uid != request.uid


@pytest.mark.parametrize("kind, device", [
    (READ, None), (WRITE, None), (READ, 2), (WRITE, 2),
])
def test_issued_packet_equals_a_keyword_built_packet(kind, device):
    config = small_config()
    inject = PacketQueue("inject", 16)
    remote = PacketQueue("remote", 16)
    sm = StreamingMultiprocessor(3, config, inject, read_clock=lambda sm: 0,
                                 device_id=1, remote_queue=remote)
    address = 0x2A80

    def program(ctx):
        yield MemOp(kind, [address], device=device)

    context = WarpContext(block_id=0, warp_id=0, sm_id=3, lanes=32)
    warp = sm.add_warp(context, program(context))
    sm.tick(17)
    (packet,) = (remote if device is not None else inject)._queue
    expected = Packet(
        kind=kind,
        address=address,
        flits=(config.read_request_flits if kind == READ
               else config.write_request_flits),
        src_sm=3,
        slice_id=config.address_to_slice(address),
        warp_ref=warp,
        group_id=warp.op_group,
        birth_cycle=17,
        src_device=1,
        dst_device=1 if device is None else device,
    )
    assert _fields(packet) == _fields(expected)
    assert packet.warp_ref is warp
