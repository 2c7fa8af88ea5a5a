"""The ``repro.metrics`` plane: registry, exposition, profiling, history.

Covers the labeled-metrics registry and its mergeable manifests, the
Prometheus text exposition, the sampled engine self-profiler (including
the bit-identity contract), the live sweep-progress renderer, the
bench-trajectory history, and the supervised-sweep metrics manifest
(engine profiles count only fresh, healthy points).
"""

import io
import json

import pytest

from repro.config import SweepSupervision, small_config
from repro.metrics import (
    EngineProfiler,
    MetricsRegistry,
    SweepProgress,
    append_history,
    bench_record,
    check_history,
    get_registry,
    load_history,
    render_manifest_prometheus,
    render_prometheus,
    scoped_registry,
)
from repro.runner import (
    JobFailure,
    ResultCache,
    SimJob,
    merge_telemetry,
    run_supervised,
)

#: Fast supervision policy for metric-aggregation sweeps.
FAST = SweepSupervision(
    backoff_base_s=0.01, backoff_max_s=0.02, max_attempts=2
)


def always_raise(config, tag="boom"):
    """Workload that fails on every attempt (picklable dotted path)."""
    raise RuntimeError(f"injected: {tag}")


RAISER = f"{__name__}.always_raise"


def fig10_job(count, seed, **config_overrides):
    return SimJob(
        fn="repro.runner.workloads.fig10_point",
        config=small_config(**config_overrides),
        params={
            "kind": "tpc",
            "iteration_count": count,
            "bits_per_channel": 4,
            "seed": seed,
        },
    )


class TestRegistry:
    def test_counter_handle_is_stable_and_hot(self):
        registry = MetricsRegistry()
        handle = registry.counter("jobs_total", "jobs", state="ok")
        handle.inc()
        handle.inc(4)
        assert registry.counter("jobs_total", state="ok") is handle
        assert registry.value("jobs_total", state="ok").value == 5

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", state="ok").inc()
        registry.counter("jobs_total", state="failed").inc(2)
        series = registry.series("jobs_total")
        assert [(labels, m.value) for labels, m in series] == [
            ({"state": "failed"}, 2),
            ({"state": "ok"}, 1),
        ]

    def test_kind_conflict_is_a_hard_error(self):
        registry = MetricsRegistry()
        registry.counter("latency")
        with pytest.raises(ValueError, match="already registered"):
            registry.sampler("latency")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_name", **{"0bad": "x"})

    def test_gauge_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers")
        gauge.set(4)
        gauge.high_water(2)
        assert gauge.value == 4
        gauge.high_water(9)
        assert gauge.value == 9

    def test_manifest_is_rfc_json(self):
        registry = MetricsRegistry()
        registry.sampler("empty_sampler")  # ±inf bounds internally
        registry.histogram("empty_hist", bucket_width=8, num_buckets=4)
        text = json.dumps(registry.to_manifest())
        assert "Infinity" not in text
        json.loads(text)  # strict round-trip

    def test_merge_manifest_folds_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("c", state="ok").inc(3)
        registry.gauge("g").set(5)
        sampler = registry.sampler("s")
        sampler.add(2.0)
        sampler.add(4.0)
        hist = registry.histogram("h", bucket_width=10, num_buckets=4)
        hist.add(5)
        hist.add(9999)  # overflow bucket

        manifest = json.loads(json.dumps(registry.to_manifest()))
        registry.merge_manifest(manifest)
        assert registry.value("c", state="ok").value == 6
        assert registry.value("g").value == 5  # gauge keeps the max
        merged_sampler = registry.value("s")
        assert merged_sampler.count == 4
        assert merged_sampler.minimum == 2.0
        merged_hist = registry.value("h")
        assert merged_hist.count == 4
        assert merged_hist.overflow == 2

    def test_merge_manifest_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MetricsRegistry().merge_manifest(
                {"metrics": {"x": {"kind": "mystery", "series": []}}}
            )

    def test_reset_zeroes_but_retains_families(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.reset()
        assert registry.value("c").value == 0
        assert len(registry) == 1

    def test_scoped_registry_overrides_default(self):
        outer = get_registry()
        with scoped_registry() as inner:
            assert get_registry() is inner
            assert inner is not outer
            with scoped_registry() as innermost:
                assert get_registry() is innermost
            assert get_registry() is inner
        assert get_registry() is outer


class TestExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs seen.", state="ok").inc(3)
        registry.gauge("workers").set(2)
        text = render_prometheus(registry)
        assert "# HELP jobs_total Jobs seen." in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{state="ok"} 3' in text
        assert "# TYPE workers gauge" in text
        assert "workers 2" in text

    def test_sampler_renders_as_summary(self):
        registry = MetricsRegistry()
        sampler = registry.sampler("latency_s", strategy="active")
        sampler.add(1.5)
        sampler.add(2.5)
        text = render_prometheus(registry)
        assert "# TYPE latency_s summary" in text
        assert 'latency_s_count{strategy="active"} 2' in text
        assert 'latency_s_sum{strategy="active"} 4' in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("span", bucket_width=10, num_buckets=4)
        for value in (5, 5, 15, 9999):
            hist.add(value)
        text = render_prometheus(registry)
        assert '_bucket{le="10"} 2' in text
        assert '_bucket{le="20"} 3' in text
        assert '_bucket{le="+Inf"} 4' in text
        assert "span_count 4" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_renders_from_stored_manifest(self):
        registry = MetricsRegistry()
        registry.counter("c", state="ok").inc(2)
        stored = json.loads(json.dumps(registry.to_manifest()))
        assert render_manifest_prometheus(stored) == render_prometheus(
            registry
        )


class TestEngineProfiler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineProfiler(interval=0)
        with pytest.raises(ValueError):
            small_config(metrics_interval=0)

    def test_sampling_rearms_the_stride(self):
        profiler = EngineProfiler(interval=32)
        assert profiler.next_sample == 0
        profiler.sample(100, 7)
        assert profiler.next_sample == 132
        summary = profiler.registry.value(
            "engine_active_set_size", strategy="active"
        )
        assert summary.count == 1 and summary.maximum == 7

    def test_device_attaches_profiler_only_when_enabled(self):
        from repro.gpu.device import GpuDevice

        off = GpuDevice(small_config())
        assert off.profiler is None
        assert off.metrics_manifest() is None
        on = GpuDevice(small_config(metrics_enabled=True))
        assert on.profiler is not None
        assert on.engine.profiler is on.profiler
        manifest = on.metrics_manifest()
        assert "engine_fast_forwards_total" in manifest["metrics"]

    def _channel_fingerprint(self, **overrides):
        from repro.channel import TpcCovertChannel

        channel = TpcCovertChannel(small_config(**overrides))
        channel.calibrate()
        result = channel.transmit([1, 0, 1, 1])
        return result.cycles, result.received_symbols, result.measurements

    def test_bit_identical_with_metrics_enabled(self):
        base = self._channel_fingerprint()
        profiled = self._channel_fingerprint(
            metrics_enabled=True, metrics_interval=16,
        )
        assert profiled == base

    def test_profile_observes_the_run(self):
        from repro.telemetry import collecting

        with collecting() as frame:
            self._channel_fingerprint(metrics_enabled=True)
        merged = frame.metrics()
        assert merged is not None and merged["devices"] >= 1
        families = merged["metrics"]
        ff = families["engine_fast_forwards_total"]["series"][0]
        assert ff["labels"] == {"strategy": "active"}
        assert ff["value"] > 0
        samples = families["engine_profile_samples_total"]["series"][0]
        assert samples["value"] > 0

    def test_lockstep_oracle_passes_with_metrics_on(self):
        from repro.gpu.workloads import make_streaming_kernel
        from repro.validate import verify_equivalence

        config = small_config(metrics_enabled=True, metrics_interval=16)

        def stimulus(device):
            device.preload_region(0, 1 << 20)
            device.launch(
                make_streaming_kernel(device.config, "write", ops=6)
            )

        assert verify_equivalence(config, stimulus, max_cycles=20_000) is None


class TestSweepProgress:
    def _progress(self):
        stream = io.StringIO()  # not a TTY: plain-line mode
        return SweepProgress("demo", total=4, stream=stream), stream

    def test_plain_lines_only_on_done_change(self):
        progress, stream = self._progress()
        progress.on_event("launch", {"index": 0, "attempt": 1})
        progress.on_event("launch", {"index": 1, "attempt": 1})
        progress.progress(1, 4)
        progress.progress(1, 4)  # no change -> no extra line
        progress.progress(2, 4)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3  # initial paint at 0, then 1, then 2
        assert "2/4" in lines[-1]

    def test_counts_cache_retry_and_failures(self):
        progress, stream = self._progress()
        progress.on_event("cache-hit", {"index": 0})
        progress.on_event("cache-hit", {"index": 1})
        progress.on_event(
            "fail", {"index": 2, "attempt": 1, "kind": "timeout",
                     "retry": True},
        )
        progress.on_event(
            "fail", {"index": 2, "attempt": 2, "kind": "timeout",
                     "retry": False},
        )
        progress.progress(3, 4)
        assert progress.cache_hits == 2
        assert progress.retries == 1 and progress.failures == 1
        line = stream.getvalue().splitlines()[-1]
        assert "cache 2" in line and "retry 1" in line and "fail 1" in line

    def test_close_is_final(self):
        progress, stream = self._progress()
        progress.progress(4, 4)
        progress.close()
        progress.close()  # idempotent
        size = len(stream.getvalue())
        progress.on_event("launch", {"index": 9, "attempt": 1})
        assert len(stream.getvalue()) == size

    def _tty_progress(self):
        class TtyStream(io.StringIO):
            def isatty(self):
                return True

        stream = TtyStream()
        return SweepProgress("demo", total=4, stream=stream), stream

    def test_tty_newline_on_keyboard_interrupt(self):
        """A sweep killed mid-flight must not leave a partial \\r line."""
        progress, stream = self._tty_progress()
        with pytest.raises(KeyboardInterrupt):
            with progress:
                progress.progress(1, 4)  # paints "\r demo ..."
                raise KeyboardInterrupt
        assert stream.getvalue().endswith("\n")
        assert progress._closed

    def test_tty_newline_on_exception(self):
        progress, stream = self._tty_progress()
        with pytest.raises(RuntimeError):
            with progress:
                progress.progress(2, 4)
                raise RuntimeError("worker crashed")
        assert stream.getvalue().endswith("\n")

    def test_close_survives_torn_down_stream(self):
        """The final repaint raising must still mark the renderer closed
        and must not mask the teardown with a second exception."""
        progress, stream = self._tty_progress()
        progress.progress(1, 4)

        def broken_write(text):
            raise OSError("stream gone")

        stream.write = broken_write
        with pytest.raises(OSError):
            progress.close()  # repaint raises; newline failure swallowed
        assert progress._closed
        progress.close()  # idempotent even after the failure


class TestHistory:
    def _report(self, factor=1.0):
        return {
            "scales": {"num_sms": 4, "num_l2_slices": 2},
            "num_bits": 8,
            "workloads": {
                "tpc_channel": {
                    "naive_cycles_per_s": 1000.0 * factor,
                    "active_cycles_per_s": 5000.0 * factor,
                    "identical": True,
                },
            },
            "min_speedup": 5.0,
        }

    def test_record_shape_and_hash_stability(self):
        record = bench_record(self._report(), scale="small",
                              timestamp=123.0)
        assert record["ts"] == 123.0
        assert record["throughputs"]["tpc_channel"]["naive"] == 1000.0
        assert record["config_hash"] == bench_record(
            self._report(factor=2.0)
        )["config_hash"]  # throughputs don't affect the config hash
        assert record["host_key"]

    def test_append_load_roundtrip_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(bench_record(self._report(), timestamp=1.0), path)
        append_history(bench_record(self._report(), timestamp=2.0), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # killed mid-write
        records = load_history(path)
        assert [r["ts"] for r in records] == [1.0, 2.0]

    def test_check_skips_without_comparable_baseline(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        check = check_history(self._report(), path=path)
        assert check.ok and check.skipped_reason
        # A record from a different host is not comparable either.
        alien = bench_record(self._report(), timestamp=1.0)
        alien["host_key"] = "somewhere-else"
        append_history(alien, path)
        assert check_history(self._report(), path=path).skipped_reason

    def test_detects_regression_beyond_threshold(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        for ts in (1.0, 2.0, 3.0):
            append_history(
                bench_record(self._report(), timestamp=ts), path
            )
        ok = check_history(self._report(factor=0.9), path=path)
        assert ok.ok and ok.compared == 2  # -10% is inside the threshold
        bad = check_history(self._report(factor=0.7), path=path)
        assert not bad.ok
        assert {(r.workload, r.strategy) for r in bad.regressions} == {
            ("tpc_channel", "naive"), ("tpc_channel", "active"),
        }
        assert bad.regressions[0].drop_frac == pytest.approx(0.3)
        assert "REGRESSION" in bad.regressions[0].line()

    def test_short_history_is_explicit(self, tmp_path):
        """Fewer prior records than the window still compares, but the
        degraded baseline is flagged instead of passing silently."""
        path = tmp_path / "hist.jsonl"
        append_history(bench_record(self._report(), timestamp=1.0), path)
        check = check_history(self._report(), path=path, window=8)
        assert check.compared == 2
        assert check.baseline_runs == 1
        assert check.short_history
        assert any("short history" in line for line in check.lines())
        # A full window is not short.
        for ts in range(2, 10):
            append_history(
                bench_record(self._report(), timestamp=float(ts)), path
            )
        full = check_history(self._report(), path=path, window=8)
        assert not full.short_history
        assert not any("short history" in line for line in full.lines())

    def test_rows_with_retired_strategies_still_load(self, tmp_path):
        """Rows written while a ``vector`` strategy was benchmarked keep
        loading and serve as baseline; the retired series is ignored."""
        path = tmp_path / "hist.jsonl"
        for ts in (1.0, 2.0, 3.0):
            record = bench_record(self._report(), timestamp=ts)
            record["throughputs"]["tpc_channel"]["vector"] = 9000.0
            record["vector_speedup_vs_active"] = 1.8
            append_history(record, path)
        assert len(load_history(path)) == 3
        report = self._report(factor=0.7)
        report["workloads"]["tpc_channel"]["vector_cycles_per_s"] = 1.0
        assert "vector" not in bench_record(report)["throughputs"][
            "tpc_channel"
        ]
        check = check_history(report, path=path)
        assert check.baseline_runs == 3 and check.compared == 2
        assert {r.strategy for r in check.regressions} == {"naive", "active"}

    def test_zero_median_is_named_not_passed(self, tmp_path):
        """A nonpositive trailing median cannot form a floor: the series
        is excluded from the comparison and listed, never silently OK."""
        path = tmp_path / "hist.jsonl"
        for ts in (1.0, 2.0, 3.0):
            append_history(
                bench_record(self._report(factor=0.0), timestamp=ts), path
            )
        check = check_history(self._report(), path=path)
        assert check.compared == 0
        assert sorted(check.zero_median) == [
            "tpc_channel/active", "tpc_channel/naive",
        ]
        assert check.ok  # no regression claim, but...
        assert any("nonpositive" in line for line in check.lines())


class TestSupervisedAggregation:
    """Satellite: a sweep's manifest counts only fresh, healthy points."""

    def _jobs(self):
        healthy = [fig10_job(1, 501, metrics_enabled=True),
                   fig10_job(2, 502, metrics_enabled=True)]
        sick = SimJob(fn=RAISER, config=small_config(),
                      params={"tag": "metrics-agg"})
        return healthy + [sick]

    @staticmethod
    def _registry(outcome):
        return MetricsRegistry().merge_manifest(outcome.metrics)

    @staticmethod
    def _engine(outcome):
        return [name for name in outcome.metrics["metrics"]
                if name.startswith("engine_")]

    def test_outcome_metrics_with_failures(self):
        with scoped_registry() as captured:
            outcome = run_supervised(self._jobs(), workers=2, policy=FAST)
        assert len(outcome.failures) == 1
        registry = self._registry(outcome)

        def value(name, **labels):
            return registry.value(name, **labels).value

        assert value("sweep_jobs_total", state="completed") == 2
        assert value("sweep_jobs_total", state="failed") == 1
        assert value("sweep_attempts_total") == 4  # 2 ok + 2 for raiser
        assert value("sweep_retries_total") == 1
        assert value(
            "sweep_attempt_failures_total", kind="exception"
        ) == 2
        # The two fresh points' engine profiles are in the manifest...
        ff = registry.value("engine_fast_forwards_total", strategy="active")
        assert ff is not None and ff.value > 0
        # ...and nothing lands in the process registry: the caller
        # folds the manifest where it reports from.
        assert captured.to_manifest() == {"metrics": {}}

    def test_engine_profiles_fold_only_from_fresh_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", metrics=MetricsRegistry())
        jobs = self._jobs()
        first = run_supervised(jobs, workers=2, cache=cache, policy=FAST)
        # Healthy results now come from the cache (the failed job is
        # never cached): nothing runs fresh, so no engine profile is
        # counted a second time.
        second = run_supervised(jobs, workers=2, cache=cache, policy=FAST)
        # A rerun of just the stored points executes nothing at all.
        rerun = run_supervised(jobs[:2], workers=2, cache=cache,
                               policy=FAST)
        assert self._engine(first)
        assert second.counters["cache_hits"] == 2
        assert self._engine(second) == []
        assert rerun.counters == {"cache_hits": 2}
        assert self._engine(rerun) == []

        telemetry = merge_telemetry(first.results)
        assert telemetry["jobs"] == 2

    def test_failure_slots_never_contribute(self):
        outcome = run_supervised(self._jobs(), workers=2, policy=FAST)
        assert isinstance(outcome.results[2], JobFailure)
        # The manifest's engine families are exactly the fold of the two
        # healthy results' profiles: the failure record adds nothing.
        expected = MetricsRegistry()
        for result in outcome.results[:2]:
            expected.merge_manifest(result["metrics"])
        engine = {
            name: family
            for name, family in outcome.metrics["metrics"].items()
            if name.startswith("engine_")
        }
        assert engine == expected.to_manifest()["metrics"]
