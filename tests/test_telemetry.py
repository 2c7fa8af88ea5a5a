"""Telemetry subsystem: tracer, timelines, exporters, and invariants.

The load-bearing guarantees tested here:

* seeded runs are bit-identical with telemetry on or off,
* the event stream is identical under the naive and active engine
  strategies (no phantom or missing events from fast-forwarding),
* no recorded event carries a cycle inside a fast-forwarded gap,
* the telemetry-disabled hot path performs no allocations attributable
  to the telemetry package.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest

import repro.telemetry as telemetry_pkg
from repro.channel.metrics import slot_contention
from repro.channel.tpc_channel import TpcCovertChannel
from repro.config import small_config
from repro.gpu.device import GpuDevice
from repro.runner import SimJob, execute, merge_telemetry
from repro.telemetry import (
    Telemetry,
    Tracer,
    chrome_trace,
    collecting,
    write_chrome_trace,
)
from repro.noc.buffer import PacketQueue
from repro.noc.packet import READ, Packet
from repro.sim.engine import FOREVER, Component, Engine
from repro.telemetry.timeline import (
    LinkSeries,
    QueueMeter,
    Timeline,
    TimelineProbe,
)


BITS = [1, 0, 1, 1, 0, 0, 1, 0]


def _transmit(config):
    channel = TpcCovertChannel(config)
    result = channel.transmit(BITS)
    return channel, result


def _telemetry_cfg(**overrides):
    return replace(small_config(), telemetry_enabled=True, **overrides)


class TestTracer:
    def test_ring_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for cycle in range(10):
            tracer.emit(cycle, 0, 0)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.recorded == 10
        assert [event[0] for event in tracer] == [6, 7, 8, 9]

    def test_clear(self):
        tracer = Tracer(capacity=2)
        tracer.emit(0, 0, 0)
        tracer.emit(1, 0, 0)
        tracer.emit(2, 0, 0)
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestTimeline:
    def test_link_series_buckets_by_epoch(self):
        series = LinkSeries("link", width=2, epoch_cycles=10)
        series.add(3, 1)
        series.add(9, 1)
        series.add(10, 4)
        assert series.flits == {0: 2, 1: 4}
        assert series.total_flits == 6
        assert series.utilization() == {0: 0.1, 1: 0.2}
        assert series.peak_utilization == 0.2

    def test_queue_meter_tracks_epoch_peaks(self):
        class FakeQueue:
            name = "q"
            used_flits = 1

        meter = QueueMeter("q", FakeQueue())
        meter.note(3)
        meter.note(2)
        meter.flush(0)
        assert meter.series == {0: 3}
        # The standing occupancy seeds the next epoch.
        meter.flush(1)
        assert meter.series == {0: 3, 1: 1}
        assert meter.peak_flits == 3

    def test_timeline_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            Timeline(epoch_cycles=0)


class TestBitIdenticalWithTelemetry:
    def test_channel_results_identical_on_off(self):
        _, off = _transmit(small_config())
        _, on = _transmit(_telemetry_cfg())
        assert on.received_symbols == off.received_symbols
        assert on.cycles == off.cycles
        assert on.measurements == off.measurements
        assert off.telemetry is None
        assert on.telemetry is not None

    def test_stats_counters_identical_on_off(self):
        def run(config):
            from repro.gpu.kernel import Kernel
            from repro.gpu.warp import MemOp
            from repro.noc.packet import READ

            device = GpuDevice(config)
            device.preload_region(0, 4096)

            def program(ctx):
                for i in range(16):
                    yield MemOp(READ, [i * 32])

            device.launch(Kernel(program, num_blocks=2, warps_per_block=1))
            device.run()
            return device.stats.snapshot(), device.engine.cycle

        off = run(small_config())
        on = run(_telemetry_cfg())
        assert on == off


def _normalized_events(hub):
    """Event stream with packet uids renumbered by first appearance.

    Packet uids come from a process-global counter, so two otherwise
    identical runs see different absolute uids; everything else in the
    stream (cycles, kinds, components, ports) must match exactly.
    """
    from repro.telemetry.events import KIND_ARGS

    remap = {}
    out = []
    for cycle, kind, component, *payload in hub.tracer:
        fields = KIND_ARGS[kind]
        for slot, field in enumerate(fields):
            if field == "uid":
                uid = payload[slot]
                payload[slot] = remap.setdefault(uid, len(remap))
        out.append((cycle, kind, component, *payload))
    return out


class TestEventOrderingAcrossStrategies:
    def test_event_stream_identical_naive_vs_active(self):
        streams = {}
        for strategy in ("naive", "active"):
            config = _telemetry_cfg(engine_strategy=strategy)
            channel, _ = _transmit(config)
            assert channel.last_telemetry is not None
            with collecting() as frame:
                _transmit(config)
            streams[strategy] = [
                _normalized_events(hub) for hub in frame.hubs()
            ]
        assert streams["naive"] == streams["active"]

    def test_no_event_inside_fast_forward_span(self):
        with collecting() as frame:
            _transmit(_telemetry_cfg())
        hub = frame.hubs()[0]
        spans = hub.fast_forwards
        assert spans, "active strategy should have fast-forwarded"
        # Events are emitted only from ticks; fast-forward only happens
        # when nothing ticks, so no event cycle may fall in [frm, to).
        boundaries = sorted(spans)
        for cycle, *_ in hub.tracer:
            for frm, to in boundaries:
                assert not (frm <= cycle < to), (
                    f"event at cycle {cycle} inside skipped span "
                    f"[{frm}, {to})"
                )


class TestHubAndManifest:
    def test_manifest_reports_events_links_and_latency(self):
        with collecting() as frame:
            _transmit(_telemetry_cfg())
        manifest = frame.manifest()
        assert manifest["devices"] >= 1
        assert manifest["read_latency"]["count"] > 0
        device_entry = manifest["per_device"][0]
        assert device_entry["events"]["recorded"] > 0
        assert device_entry["links"]  # at least one active link series
        assert device_entry["read_latency_percentiles"]["p50"] > 0
        # Must survive a JSON round trip (attached to runner results).
        assert json.loads(json.dumps(manifest)) == manifest

    def test_contention_timeline_aligns_with_bit_schedule(self):
        config = _telemetry_cfg(telemetry_epoch_cycles=32)
        channel, result = _transmit(config)
        with collecting() as frame:
            channel2 = TpcCovertChannel(config)
            channel2._channel_thresholds = channel._channel_thresholds
            channel2.params = channel.params
            result = channel2.transmit(BITS)
        hub = frame.hubs()[0]
        # The sender/receiver pair lives on one TPC: its mux link series
        # must show more traffic during '1' slots than '0' slots.
        series = {s.name: s for s in hub.timeline.links}
        tpc_links = [s for n, s in series.items()
                     if n.startswith("tpc") and s.flits]
        assert tpc_links
        link = max(tpc_links, key=lambda s: s.total_flits)
        slot_cycles = result.cycles // len(BITS)
        slots = slot_contention(
            link.flits, hub.timeline.epoch_cycles,
            slot_cycles, len(BITS),
        )
        ones = [slots[i] for i, bit in enumerate(BITS) if bit]
        zeros = [slots[i] for i, bit in enumerate(BITS) if not bit]
        assert min(ones) > max(zeros)

    def test_slot_contention_prorates_straddling_epochs(self):
        # One epoch of 10 cycles with 10 flits, slots of 5 cycles.
        assert slot_contention({0: 10}, 10, 5, 4) == [5, 5, 0, 0]
        with pytest.raises(ValueError):
            slot_contention({}, 0, 5, 4)

    def test_fast_forward_cap(self):
        hub = Telemetry(ring_capacity=8)
        from repro.telemetry.hub import MAX_FAST_FORWARDS

        for i in range(MAX_FAST_FORWARDS + 5):
            hub.note_fast_forward(i, i + 1)
        assert len(hub.fast_forwards) == MAX_FAST_FORWARDS
        section = hub.manifest()["fast_forward"]
        assert section["spans"] == MAX_FAST_FORWARDS + 5
        assert section["recorded"] == MAX_FAST_FORWARDS
        assert section["dropped"] == 5
        # Retained spans still sum; dropped ones make it a lower bound.
        assert section["cycles"] == MAX_FAST_FORWARDS
        hub.reset()
        fresh = hub.manifest()["fast_forward"]
        assert fresh["dropped"] == 0 and fresh["spans"] == 0


class TestChromeTraceExport:
    def test_trace_json_has_grant_events_and_rtt_spans(self, tmp_path):
        with collecting() as frame:
            _transmit(_telemetry_cfg())
        out = tmp_path / "trace.json"
        write_chrome_trace(str(out), frame.hubs())
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"M", "i", "X", "C"} <= phases
        grants = [e for e in events if e["name"] == "mux_grant"]
        assert grants and all(e["ph"] == "i" for e in grants)
        spans = [e for e in events if e["name"] == "l2_round_trip"]
        assert spans
        for span in spans:
            assert span["ph"] == "X"
            assert span["dur"] == span["args"]["latency"]
            assert span["ts"] >= 0
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        thread_names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert any(name.startswith("tpc") for name in thread_names)

    def test_multiple_hubs_become_processes(self):
        with collecting() as frame:
            _transmit(_telemetry_cfg())
        hubs = frame.hubs()
        assert len(hubs) == 2  # calibrate + transmit each built a device
        trace = chrome_trace(hubs)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {0, 1}


class TestRunnerIntegration:
    def test_device_less_job_results_unchanged(self):
        job = SimJob(fn="tests.test_runner.double",
                     config=small_config(), seed=99, params={"factor": 3})
        assert execute(job) == {"seed": 99, "value": 297}

    def test_device_job_gains_telemetry_manifest(self):
        job = SimJob(
            fn="repro.runner.workloads.table2_point",
            config=small_config(),
            params={"kind": "tpc", "bits_per_channel": 4, "seed": 5},
        )
        result = execute(job)
        section = result["telemetry"]
        assert section["devices"] >= 1
        assert section["read_latency"]["count"] > 0

    def test_merge_telemetry_aggregates_jobs(self):
        jobs = [
            SimJob(
                fn="repro.runner.workloads.table2_point",
                config=small_config(),
                params={"kind": "tpc", "bits_per_channel": 4, "seed": s},
            )
            for s in (5, 6)
        ]
        results = [execute(job) for job in jobs]
        merged = merge_telemetry(results)
        assert merged["jobs"] == 2
        expected = sum(
            r["telemetry"]["read_latency"]["count"] for r in results
        )
        assert merged["read_latency"]["count"] == expected

    def test_merge_telemetry_none_without_sections(self):
        assert merge_telemetry([{"a": 1}, 7, None]) is None


class TestDisabledHotPath:
    def test_disabled_run_allocates_nothing_in_telemetry_package(self):
        """Tier-1 regression: telemetry off must cost one branch, not
        allocations or event work, on the per-cycle hot path."""
        config = small_config()
        # Warm up imports and caches outside the measurement window.
        _transmit(config)
        package_dir = telemetry_pkg.__path__[0]
        tracemalloc.start()
        try:
            _transmit(config)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry_allocs = [
            stat
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.startswith(package_dir)
        ]
        assert telemetry_allocs == []

    def test_disabled_device_has_no_probe_or_hooks(self):
        device = GpuDevice(small_config())
        assert device.telemetry is None
        assert device.telemetry_manifest() is None
        assert device.engine.on_fast_forward is None
        names = [c.name for c in device.engine.components]
        assert "telemetry.probe" not in names
        assert all(q.meter is None for q in device.inject_queues)

    def test_enabled_device_registers_probe_last_enough(self):
        device = GpuDevice(_telemetry_cfg())
        names = [c.name for c in device.engine.components]
        assert names[-1] == "telemetry.probe"
        assert device.engine.on_fast_forward is not None


class _Pulses(Component):
    """Holds one 2-flit packet in ``queue`` over each ``(push, pop)`` pair."""

    def __init__(self, name, queue, pulses):
        self.name = name
        self.queue = queue
        self.pulses = pulses

    def tick(self, cycle):
        for push, pop in self.pulses:
            if cycle == push:
                self.queue.push(Packet(kind=READ, address=0, flits=2,
                                       src_sm=0, slice_id=0))
            elif cycle == pop:
                self.queue.pop()

    def idle_until(self, cycle):
        upcoming = [c for pair in self.pulses for c in pair if c > cycle]
        return min(upcoming, default=FOREVER)


def _pulse_run(strategy, cycles=400):
    """Two metered queues filled before and after the probe in tick order.

    Pushes land on epoch boundaries (16, 32, 208, 240), mid-epoch, and
    hold across several boundaries, with idle gaps of many epochs
    between, so most of them wake a parked probe.
    """
    timeline = Timeline(epoch_cycles=16)
    early = PacketQueue("early", 8)
    late = PacketQueue("late", 8)
    timeline.register_queue(early)
    timeline.register_queue(late)
    probe = TimelineProbe(timeline)
    engine = Engine(
        [
            _Pulses("early", early,
                    [(16, 20), (100, 140), (208, 210), (300, 301)]),
            probe,
            _Pulses("late", late, [(32, 33), (240, 250)]),
        ],
        strategy=strategy,
    )
    spans = []
    engine.on_fast_forward = lambda frm, to: spans.append((frm, to))
    engine.step(cycles)
    timeline.finalize(engine.cycle)
    series = {meter.name: dict(meter.series) for meter in timeline.meters}
    return series, engine, timeline, spans


class TestProbeParking:
    """The probe parks while nothing is metered, and flushes as if not."""

    def test_series_match_the_every_boundary_reference(self):
        naive, _, _, _ = _pulse_run("naive")
        active, _, timeline, spans = _pulse_run("active")
        assert active == naive
        # A push before the probe on a boundary (16, 208) belongs to the
        # epoch that just ended; one after it (32, 240), to the epoch it
        # opens.  A held packet is reported in every epoch it spans
        # (100-140 covers epochs 6-8).
        assert active == {
            "early": {0: 2, 1: 2, 6: 2, 7: 2, 8: 2, 12: 2, 13: 2, 18: 2},
            "late": {2: 2, 15: 2},
        }
        assert timeline.probe_parked
        # Parked, the probe no longer cuts idle gaps at every boundary.
        assert (49, 100) in spans and (145, 208) in spans

    def test_note_wakes_a_parked_probe(self):
        _, engine, timeline, _ = _pulse_run("active", cycles=50)
        assert timeline.probe_parked
        queue = timeline.meters[0].queue
        queue.push(Packet(kind=READ, address=0, flits=3, src_sm=0,
                          slice_id=0))
        assert not timeline.probe_parked
        probe_index = timeline.probe._engine_index
        assert probe_index in engine._active

    def test_reset_unparks_and_replays(self):
        first, engine, timeline, _ = _pulse_run("active")
        engine.reset()
        timeline.reset()
        assert not timeline.probe_parked
        engine.step(400)
        timeline.finalize(engine.cycle)
        again = {meter.name: dict(meter.series) for meter in timeline.meters}
        assert again == first

    def test_device_timeline_matches_naive(self):
        timelines = {}
        for strategy in ("naive", "active"):
            with collecting() as frame:
                _transmit(_telemetry_cfg(engine_strategy=strategy))
            hub = frame.hubs()[0]
            timelines[strategy] = (
                {m.name: dict(m.series) for m in hub.timeline.meters},
                {s.name: dict(s.flits) for s in hub.timeline.links},
            )
        assert timelines["naive"] == timelines["active"]


class TestCliTrace:
    def test_trace_command_writes_valid_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        code = main(["trace", "--figure", "transmit", "--bits", "8",
                     "--out", str(out)])
        assert code == 0
        trace = json.loads(out.read_text())
        assert any(e["name"] == "mux_grant" for e in trace["traceEvents"])
        assert "wrote" in capsys.readouterr().out
