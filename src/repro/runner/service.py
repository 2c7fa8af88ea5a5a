"""Async sweep service: dedup scheduler over a bounded shard pool.

:class:`SweepService` puts a service shape in front of the supervised
executor of :mod:`repro.runner`: callers submit *requests*
(lists of :class:`~repro.runner.runner.SimJob`) concurrently, and the
scheduler guarantees each unique grid point — identified by its
content-hash :meth:`~repro.runner.runner.SimJob.key` — executes **at most
once** no matter how many overlapping requests are in flight:

* the first request to name a key creates an in-flight future and hands
  the job to the shard pool;
* later requests naming the same key *attach* to that future ("late
  subscribers") and receive the identical result object;
* keys whose result is already in the shared artifact store
  (:class:`~repro.runner.cache.ResultCache`) resolve immediately as
  cache hits, without dispatching anything.

The shard pool is one ``ThreadPoolExecutor`` with ``shards`` threads —
itself a bounded FIFO, so there is no second queue in front of it.  Each
shard thread wraps its job in
:func:`~repro.runner.supervisor.run_supervised` — one worker process per
attempt under the full :class:`~repro.config.SweepSupervision` net
(wall-clock timeouts, retries with deterministic backoff) — so a shard
killed mid-job is retried, not lost.  The pool starts with the first
dispatch, so constructing a service starts no threads.

All scheduler state (the in-flight map, the counters), the artifact
store and the metrics registry are owned by the asyncio event-loop
thread: a finished job settles through a done-callback on the loop,
which does the store's single ``put`` there and folds the shard's
:attr:`~repro.runner.supervisor.SweepOutcome.metrics` — its supervision
counts and the engine profile of the job it ran — into the registry.
Shard threads touch neither (``run_supervised`` gets ``cache=None`` and
counts into a registry of its own), so
:class:`~repro.runner.cache.ResultCache` and the registry, whose
counters are not thread-safe, need no locking.  The store's
write-through is the recovery path: a restarted service answers every
point that settled before the restart as a cache hit.

Service throughput/dedup counters land in the :mod:`repro.metrics`
registry (``service_requests_total``, ``service_jobs_total{state=...}``)
next to the artifact store's ``cache_ops_total`` family and the shards'
``sweep_*`` families.

Synchronous callers (CLI, tests) use :func:`serve_requests`, which runs
an event loop for the duration of a batch of requests::

    jobs_a = [SimJob(fn, config, {"iteration_count": n}) for n in grid]
    jobs_b = jobs_a[1:] + extra          # overlaps with request A
    results_a, results_b = serve_requests([jobs_a, jobs_b], cache=cache)
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import ServiceConfig, SweepSupervision
from ..metrics.registry import MetricsRegistry, get_registry
from .cache import ResultCache
from .supervisor import JobFailure, run_supervised

__all__ = ["ServiceError", "SweepService", "serve_requests"]

#: ``service_jobs_total`` label values, in manifest order.
JOB_STATES = ("dispatched", "attached", "cache_hit", "completed", "failed")


class ServiceError(RuntimeError):
    """Misuse of the sweep service (not a job failure)."""


class SweepService:
    """Asyncio job scheduler with content-hash dedup and shard workers.

    Parameters
    ----------
    cache:
        Shared artifact store.  ``None`` disables both the hit fast-path
        and the write-through — every submitted key then dispatches
        (dedup still holds *within* the service's lifetime, but repeats
        across completed requests re-execute).
    policy:
        Supervision policy for each job; defaults to
        :meth:`SweepSupervision.from_env`.
    service:
        Shape record (shard count); defaults to :class:`ServiceConfig`.
    metrics:
        Registry for service counters and each shard's folded sweep
        metrics (default: the process registry).

    Use as an async context manager, or await :meth:`close` explicitly.
    :meth:`submit` may be called from any number of tasks on the
    service's event loop.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        policy: Optional[SweepSupervision] = None,
        service: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = service if service is not None else ServiceConfig()
        self.cache = cache
        self.policy = (
            policy if policy is not None else SweepSupervision.from_env()
        )
        self.registry = metrics if metrics is not None else get_registry()
        #: Plain-int mirror of the labeled counters, for cheap asserts
        #: and manifests: one slot per :data:`JOB_STATES` plus requests.
        self.stats: Dict[str, int] = {state: 0 for state in JOB_STATES}
        self.stats["requests"] = 0
        help_text = "Sweep-service job dispositions by state."
        self._m_jobs = {
            state: self.registry.counter(
                "service_jobs_total", help_text, state=state
            )
            for state in JOB_STATES
        }
        self._m_requests = self.registry.counter(
            "service_requests_total", "Sweep requests accepted."
        )
        self._m_inflight = self.registry.gauge(
            "service_inflight_jobs",
            "Unique jobs awaiting a shard or executing.",
        )
        # One in-flight future per job key; owned by the loop thread.
        self._inflight: Dict[str, asyncio.Future] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------- #
    async def __aenter__(self) -> "SweepService":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Wait for in-flight jobs to settle, then release the pool."""
        self._closed = True
        if self._inflight:
            await asyncio.gather(
                *self._inflight.values(), return_exceptions=True
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- request path -------------------------------------------------- #
    def _key_for(self, job: Any) -> str:
        version = (
            self.cache.code_version if self.cache is not None else None
        )
        return job.key(version)

    async def submit(self, jobs: Sequence[Any]) -> List[Any]:
        """Run one sweep request; returns results in job order.

        Each job resolves to exactly one of: an artifact-store hit, an
        attachment to a future some concurrent request already opened,
        or a fresh dispatch.  Failed jobs come back as
        :class:`~repro.runner.supervisor.JobFailure` slots (graceful
        mode — a request never aborts siblings), each a copy whose
        ``index`` is the job's slot in *this* request; an exception
        raised by the executor itself propagates to every subscriber of
        the failed key.
        """
        if self._closed:
            raise ServiceError("service already closed")
        self._m_requests.inc()
        self.stats["requests"] += 1
        loop = asyncio.get_running_loop()
        futures: List[asyncio.Future] = []
        for job in jobs:
            key = self._key_for(job)
            future = self._inflight.get(key)
            if future is not None:
                self._note("attached")
            else:
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    self._note("cache_hit")
                    future = loop.create_future()
                    future.set_result(hit)
                else:
                    future = self._dispatch(loop, key, job)
            futures.append(future)
        results = await asyncio.gather(*futures)
        return [
            dataclasses.replace(result, index=index)
            if isinstance(result, JobFailure) else result
            for index, result in enumerate(results)
        ]

    def _note(self, state: str) -> None:
        self.stats[state] += 1
        self._m_jobs[state].inc()

    def _dispatch(
        self, loop: asyncio.AbstractEventLoop, key: str, job: Any
    ) -> asyncio.Future:
        """Open the in-flight future for ``key`` and queue its job.

        The job runs in a copy of the dispatching request's context, so
        context variables the submitter set (a trace's current span)
        are visible on the shard thread.
        """
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.shards,
                thread_name_prefix="repro-shard",
            )
        future = loop.create_future()
        self._inflight[key] = future
        self._m_inflight.set(len(self._inflight))
        self._note("dispatched")
        context = contextvars.copy_context()
        running = loop.run_in_executor(
            self._executor, context.run, self._run_one, job
        )
        running.add_done_callback(
            lambda done: self._settle(key, future, done)
        )
        return future

    # -- shard side ---------------------------------------------------- #
    def _run_one(self, job: Any) -> Any:
        """Execute one job on a shard thread; returns its sweep outcome."""
        return run_supervised(
            [job],
            workers=1,
            cache=None,  # the loop thread owns store reads/writes
            policy=self.policy,
        )

    def _settle(
        self, key: str, future: asyncio.Future, done: asyncio.Future
    ) -> None:
        """Resolve a dispatched key: count, store, wake subscribers.

        Runs as a done-callback on the loop thread, so the metrics fold,
        the store put, the in-flight map mutation and the future
        resolution are atomic with respect to :meth:`submit` — a request
        observing the key gone will find the artifact in the store.
        """
        result = done.exception()
        if result is None:
            outcome = done.result()
            self.registry.merge_manifest(outcome.metrics)
            result = outcome.results[0]
        if isinstance(result, (JobFailure, BaseException)):
            self._note("failed")
        else:
            if self.cache is not None:
                # put() returns the JSON round trip — hand *that* to
                # subscribers so a fresh run and a later store hit are
                # type-identical.
                result = self.cache.put(key, result)
            self._note("completed")
        self._inflight.pop(key, None)
        self._m_inflight.set(len(self._inflight))
        if future.done():  # every subscriber was cancelled
            return
        if isinstance(result, BaseException):
            future.set_exception(result)
        else:
            future.set_result(result)

    # -- manifests ----------------------------------------------------- #
    def manifest(self) -> Dict[str, Any]:
        """Counter snapshot for answer files and smoke jobs."""
        out: Dict[str, Any] = {"shards": self.config.shards,
                               **{k: self.stats[k] for k in sorted(self.stats)}}
        if self.cache is not None:
            out["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "quarantined": self.cache.quarantined,
                "max_entries": self.cache.max_entries,
                "max_bytes": self.cache.max_bytes,
            }
        return out


def serve_requests(
    requests: Iterable[Sequence[Any]],
    *,
    cache: Optional[ResultCache] = None,
    policy: Optional[SweepSupervision] = None,
    service: Optional[ServiceConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    stagger_s: float = 0.0,
) -> Tuple[List[List[Any]], Dict[str, Any]]:
    """Run concurrent sweep requests to completion on a private loop.

    Returns ``(per-request result lists, service manifest)``.  Requests
    are submitted concurrently (optionally ``stagger_s`` apart, to
    exercise late-subscriber attachment deterministically); overlapping
    grid points are deduped across them by content hash.
    """
    request_list = [list(jobs) for jobs in requests]

    async def _main() -> Tuple[List[List[Any]], Dict[str, Any]]:
        async with SweepService(
            cache, policy=policy, service=service, metrics=metrics
        ) as svc:

            async def _one(index: int, jobs: Sequence[Any]) -> List[Any]:
                if stagger_s and index:
                    await asyncio.sleep(stagger_s * index)
                return await svc.submit(jobs)

            results = await asyncio.gather(
                *(_one(i, jobs) for i, jobs in enumerate(request_list))
            )
            manifest = svc.manifest()
        return list(results), manifest

    return asyncio.run(_main())
