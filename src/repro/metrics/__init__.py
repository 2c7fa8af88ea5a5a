"""The per-process metrics plane.

Labeled counters / gauges / samplers / histograms in a mergeable
registry (:mod:`.registry`), Prometheus text exposition
(:mod:`.exposition`), sampled engine self-profiling (:mod:`.profile`),
live sweep progress rendering (:mod:`.progress`), and bench-trajectory
history with trailing-median regression detection (:mod:`.history`).

This plane is deliberately distinct from :mod:`repro.telemetry`:
telemetry records *simulated* events inside one GPU model (flit
lifecycles, cycle-stamped timelines); metrics record what the *service*
around the simulator did (jobs, retries, cache hits, profiler samples)
and aggregate across worker shards.

Well-known families published by the runner stack:

* ``sweep_jobs_total`` / ``sweep_attempts_total`` / ``sweep_retries_total``
  — supervised sweep execution (:mod:`repro.runner.supervisor`), in
  each sweep's own registry, returned as ``SweepOutcome.metrics`` with
  the engine profiles of the jobs it ran fresh;
* ``cache_ops_total{op=hit|miss|put|eviction}`` — the shared artifact
  store (:class:`repro.runner.cache.ResultCache`);
* ``service_requests_total`` / ``service_jobs_total{state=...}`` /
  ``service_inflight_jobs`` — the async sweep service
  (:mod:`repro.runner.service`);
* ``surface_queries_total{result=exact|interpolated|nearest}`` /
  ``surface_points`` — the capacity-surface query layer
  (:mod:`repro.runner.surface`).
"""

from .._lazy import lazy_exports

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "EngineProfiler",
    "Gauge",
    "HISTORY_FILE",
    "HistoryCheck",
    "MetricsRegistry",
    "Regression",
    "SweepProgress",
    "append_history",
    "bench_config_hash",
    "bench_record",
    "check_history",
    "get_registry",
    "host_fingerprint",
    "load_history",
    "render_manifest_prometheus",
    "render_prometheus",
    "scoped_registry",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".exposition": ("render_manifest_prometheus", "render_prometheus"),
        ".history": (
            "DEFAULT_THRESHOLD", "DEFAULT_WINDOW", "HISTORY_FILE",
            "HistoryCheck", "Regression", "append_history",
            "bench_config_hash", "bench_record", "check_history",
            "host_fingerprint", "load_history",
        ),
        ".profile": ("DEFAULT_INTERVAL", "EngineProfiler"),
        ".progress": ("SweepProgress",),
        ".registry": (
            "Counter", "Gauge", "MetricsRegistry", "get_registry",
            "scoped_registry",
        ),
    },
)
