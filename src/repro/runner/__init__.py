"""Experiment runner: supervised sweep fan-out, result caching, benchmarks.

Public surface::

    from repro.runner import ResultCache, SimJob, SweepError, run_supervised

    jobs = [SimJob(fn="repro.runner.workloads.fig10_point",
                   config=cfg, params={"kind": "tpc", "iteration_count": n})
            for n in (1, 2, 3, 4, 5)]
    outcome = run_supervised(jobs, workers=4, cache=ResultCache())
    if outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    rows = outcome.results

:func:`run_supervised` is the one sweep front door: one worker process
per attempt, per-job timeouts, bounded retries with deterministic
backoff (a :class:`~repro.config.SweepSupervision` ``policy``), crash
isolation, and write-through to the :class:`ResultCache` as each point
finishes, so rerunning an interrupted sweep executes only the points
that never finished.  A job whose attempts run out is a
:class:`JobFailure` in its slot; the caller decides whether that
raises.  :attr:`SweepOutcome.metrics` is the sweep's metrics
manifest — supervision counters plus the engine profiles of the jobs
it ran fresh — and callers fold it into the registry they report from.

The contract is drilled end-to-end by the chaos harness
(:func:`repro.runner.chaos.run_chaos`, ``python -m repro chaos``).
:func:`execute` runs a single job in-process, for debugging.

The service shape (``repro.runner.service``) stacks an asyncio
scheduler on the same primitives: concurrent sweep requests are
content-hash-deduped against one in-flight future per :func:`job_key`,
dispatched to supervised shard workers and written through the
(optionally size-bounded, LRU-evicting) :class:`ResultCache`; each
request gets back its simulated rows, in job order::

    results, manifest = serve_requests([jobs_a, jobs_b], cache=ResultCache())
    rows_a = results[0]   # one row (or JobFailure) per job in jobs_a

:class:`CapacitySurface` (``repro.runner.surface``) pools such rows per
iteration count and predicts between them.
"""

from .._lazy import lazy_exports

__all__ = [
    "CapacitySurface",
    "ChaosReport",
    "JobFailure",
    "Prediction",
    "ResultCache",
    "ServiceError",
    "SimJob",
    "SweepError",
    "SweepOutcome",
    "SweepService",
    "bench_engine",
    "code_version",
    "execute",
    "job_key",
    "merge_telemetry",
    "resolve",
    "run_chaos",
    "run_supervised",
    "serve_requests",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bench": ("bench_engine",),
        ".cache": ("ResultCache", "code_version", "job_key"),
        ".chaos": ("ChaosReport", "run_chaos"),
        ".runner": ("SimJob", "execute", "merge_telemetry", "resolve"),
        ".service": ("ServiceError", "SweepService", "serve_requests"),
        ".supervisor": (
            "JobFailure", "SweepError", "SweepOutcome", "run_supervised",
        ),
        ".surface": ("CapacitySurface", "Prediction"),
    },
)
