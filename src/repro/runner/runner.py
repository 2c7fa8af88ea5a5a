"""Parallel fan-out of independent simulation points.

Sweeps (Figure 10 iteration counts, Table 2 channels, seed replications)
are embarrassingly parallel: each point builds its own
:class:`~repro.gpu.device.GpuDevice` from a config and never shares state
with its neighbours.  :func:`run_jobs` hands a list of :class:`SimJob`\\ s
to :func:`~repro.runner.supervisor.run_supervised` (one worker process
per job attempt) and returns the results in job order, consulting an
optional :class:`~repro.runner.cache.ResultCache` so repeated sweeps
replay instantly.  :func:`execute` runs one job in-process — the debuggable
entry point, and what every worker calls.

Workload functions are referenced by *dotted path* (``"pkg.mod.func"``)
rather than by object so that jobs pickle cheaply and cache keys are
stable across processes.  A workload must

* accept a :class:`~repro.config.GpuConfig` as its first argument,
  followed by keyword parameters, and
* return something JSON-serialisable (results are round-tripped through
  JSON even when fresh, so cached and uncached runs are type-identical).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Union,
)

from ..config import GpuConfig
from ..sim.stats import Sampler
from ..telemetry import collecting
from .cache import ResultCache, job_key


@dataclass(frozen=True)
class SimJob:
    """One independent simulation point.

    Attributes
    ----------
    fn:
        Dotted path of the workload function (``"repro.runner.workloads.
        fig10_point"``).
    config:
        The full GPU configuration for this point.
    params:
        Keyword arguments forwarded to the workload.
    seed:
        Optional seed override; when set, the job runs with
        ``config.replace(seed=seed)`` so sweeps over seeds need not build
        one config per replication by hand.
    """

    fn: str
    config: GpuConfig
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def resolved_config(self) -> GpuConfig:
        if self.seed is None:
            return self.config
        return self.config.replace(seed=self.seed)

    def key(self, version: Optional[str] = None) -> str:
        """The job's content-hash key in the cache, journal and service.

        The seed override is folded into the config it keys on, so a
        ``seed=7`` job and one whose config already says ``seed=7`` share
        a result.  ``version`` is the store's pinned code version (the
        current tree's when None).
        """
        return job_key(self.fn, self.resolved_config(), self.params,
                       version=version)


def resolve(path: str) -> Callable[..., Any]:
    """Import the workload function named by a dotted path."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ValueError(f"not a dotted function path: {path!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"{module_name} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise ValueError(f"{path} is not callable")
    return fn


def execute(job: SimJob) -> Any:
    """Run one job in-process and return its JSON round-tripped result.

    This is the debuggable entry point: no worker process and no
    supervision, so a workload's exception propagates with its original
    traceback (and a breakpoint in it is hit).  Every supervised worker
    attempt calls it too.

    Dict-shaped results from workloads that built at least one
    :class:`~repro.gpu.device.GpuDevice` gain a ``"telemetry"`` key — the
    merged metrics manifest (round-trip latency aggregates plus, with
    ``telemetry_enabled``, link/event summaries) of every device the job
    constructed.  With ``config.metrics_enabled`` they additionally gain
    a ``"metrics"`` key holding the merged engine-profile manifest of
    every profiled device.  Non-dict results and device-less workloads
    pass through unchanged.
    """
    fn = resolve(job.fn)
    with collecting() as frame:
        result = fn(job.resolved_config(), **job.params)
    manifest = frame.manifest()
    if manifest is not None and isinstance(result, dict):
        result = dict(result)
        result["telemetry"] = manifest
        metrics = frame.metrics()
        if metrics is not None:
            result["metrics"] = metrics
    return json.loads(json.dumps(result))


def _select(
    results: Sequence[Any], fresh: Optional[Sequence[int]]
) -> Sequence[Any]:
    """Results to aggregate: all of them, or only the ``fresh`` indices.

    ``fresh`` is :attr:`~repro.runner.supervisor.SweepOutcome.fresh` —
    jobs that actually executed this run and succeeded.  Restricting to
    it keeps sweep-wide aggregates honest: cache hits and journal
    replays would double-count observations recorded by an earlier run,
    and failed slots hold :class:`JobFailure` records, not results.

    An index outside ``results`` means the caller paired a ``fresh``
    list with a result list from a *different* sweep (stale journal,
    truncated results) — an aggregate silently computed over the
    surviving indices would be wrong, so this raises instead of
    dropping them.
    """
    if fresh is None:
        return results
    out = []
    for index in fresh:
        if not 0 <= index < len(results):
            raise IndexError(
                f"fresh index {index} out of range for {len(results)} "
                f"results — fresh list and results are from different "
                f"sweeps"
            )
        out.append(results[index])
    return out


def _sections(
    results: Sequence[Any], fresh: Optional[Sequence[int]], name: str
) -> Iterator[Dict[str, Any]]:
    """Yield the nonempty ``name`` section of each selected dict result."""
    for result in _select(results, fresh):
        if isinstance(result, dict):
            section = result.get(name)
            if section:
                yield section


def merge_telemetry(
    results: Sequence[Any],
    fresh: Optional[Sequence[int]] = None,
) -> Optional[Dict[str, Any]]:
    """Aggregate the ``"telemetry"`` sections of a sweep's job results.

    Each worker process summarises its own devices; this folds the
    per-job round-trip latency summaries back into one sweep-wide
    :class:`~repro.sim.stats.Sampler` aggregate.  Returns None when no
    result carried telemetry.  ``fresh`` (see :func:`_select`) restricts
    the fold to jobs that executed fresh and succeeded this run.
    """
    sections = list(_sections(results, fresh, "telemetry"))
    if not sections:
        return None
    merged = Sampler()
    for section in sections:
        merged.merge(Sampler.from_summary(section.get("read_latency", {})))
    return {
        "jobs": len(sections),
        "devices": sum(section.get("devices", 0) for section in sections),
        "read_latency": merged.summary(),
    }


def merge_metrics(
    results: Sequence[Any],
    fresh: Optional[Sequence[int]] = None,
) -> Optional[Dict[str, Any]]:
    """Aggregate the ``"metrics"`` sections of a sweep's job results.

    Counterpart of :func:`merge_telemetry` for the labeled-metrics plane:
    per-job engine-profile manifests (recorded by workers running with
    ``config.metrics_enabled``) are folded into one registry — counters
    sum, gauges keep their high-water mark, samplers and histograms
    merge.  Returns None when no selected result carried metrics.
    ``fresh`` restricts the fold to jobs that executed fresh and
    succeeded this run, so replayed or cached points are not counted
    twice.
    """
    from ..metrics.registry import MetricsRegistry

    sections = list(_sections(results, fresh, "metrics"))
    if not sections:
        return None
    merged = MetricsRegistry()
    for section in sections:
        merged.merge_manifest(section)
    return {
        "jobs": len(sections),
        "devices": sum(section.get("devices", 0) for section in sections),
        **merged.to_manifest(),
    }


def run_jobs(
    jobs: Sequence[SimJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    *,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    policy: Optional["SweepSupervision"] = None,
    strict: bool = True,
    journal: Union[str, "Path", "SweepJournal", None] = None,
    resume: bool = False,
    on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> List[Any]:
    """Run every job under supervision; results in job order.

    A thin front door over
    :func:`~repro.runner.supervisor.run_supervised`: every job attempt
    runs in its own worker process with per-job timeouts, bounded
    retries with deterministic backoff, and crash isolation, at most
    ``workers`` at a time (``None`` picks ``min(len(jobs), cpu_count)``).
    For an in-process, debuggable run of one point call :func:`execute`.

    With a ``cache``, hits are served from disk and misses are stored
    *write-through* — each result is persisted the moment it arrives, so
    a crash mid-sweep keeps every completed point.  ``progress(done,
    total)`` is invoked after each job completes.

    ``policy`` defaults to :meth:`SweepSupervision.from_env`;
    ``timeout_s`` and ``retries`` override its fields (``retries`` counts
    *extra* attempts: ``retries=2`` means up to 3 attempts).  With
    ``strict=True`` (the default) a sweep that still has failed jobs
    after retries raises :class:`~repro.runner.supervisor.SweepError` —
    but only after every healthy job has completed and been
    checkpointed.  With ``strict=False`` failed slots hold structured
    :class:`~repro.runner.supervisor.JobFailure` records instead.

    ``journal`` (a path or :class:`~repro.runner.journal.SweepJournal`)
    checkpoints completed points to an append-only JSONL file;
    ``resume=True`` replays points a previous run already completed and
    executes only the remainder.  ``on_event`` receives the supervisor's
    fine-grained events (``launch`` / ``ok`` / ``fail`` / ``cache-hit`` /
    ``replay``).
    """
    from ..config import SweepSupervision
    from .journal import SweepJournal
    from .supervisor import SweepError, run_supervised

    if policy is None:
        policy = SweepSupervision.from_env()
    if timeout_s is not None:
        policy = policy.replace(timeout_s=timeout_s)
    if retries is not None:
        policy = policy.replace(max_attempts=retries + 1)
    owns_journal = journal is not None and not isinstance(
        journal, SweepJournal
    )
    if owns_journal:
        journal = SweepJournal(journal)
    try:
        outcome = run_supervised(
            jobs, workers=workers, cache=cache, progress=progress,
            policy=policy, journal=journal, resume=resume,
            on_event=on_event,
        )
    finally:
        if owns_journal:
            journal.close()
    if strict and outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    return outcome.results
