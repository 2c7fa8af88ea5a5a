"""Supervised, fault-tolerant sweep execution.

:func:`run_supervised` is the one sweep front door: every CLI sweep,
the golden harness, the chaos drill and each shard of the sweep service
run their jobs through it.  A plain process pool treats a sweep as an
all-or-nothing batch — one worker exception aborts every sibling, a hung
worker stalls the pool forever, and a crash (segfault, OOM kill,
``os._exit``) tears the pool down mid-flight.  This module instead
applies *per-job supervision*, the way a job scheduler babysits training
runs:

* **One process per attempt.**  Each job attempt runs in its own worker
  process that reports back over a pipe.  A worker that dies without
  reporting — killed, segfaulted, ``os._exit`` — is detected by pipe EOF
  and its exit code, and harms nobody else.
* **Wall-clock timeouts.**  A worker that has not reported within
  ``policy.timeout_s`` is terminated (SIGTERM, then SIGKILL) and the job
  is rescheduled.
* **Bounded retries with deterministic backoff.**  Failed attempts are
  re-queued up to ``policy.max_attempts`` with exponential backoff whose
  jitter derives from the job's content-hash key and attempt number —
  replaying a sweep schedules retries identically, no wall-clock entropy.
* **Graceful degradation.**  A job whose attempts are exhausted becomes a
  structured :class:`JobFailure` *in the results list*; healthy jobs
  complete normally and the sweep returns a full failure manifest.
  Strict callers raise :class:`SweepError` from the outcome's failures,
  after every healthy job has finished and been stored.
* **Durable progress.**  With a :class:`~repro.runner.cache.ResultCache`
  attached, every completed point is written through to it as it
  arrives, so a crash or Ctrl-C costs only the points that were
  literally in flight: rerunning the same sweep answers the finished
  points from the store and executes only the rest.
* **Fresh-only accounting.**  Each sweep counts its supervision events
  into a registry of its own and folds in the engine profile
  (``result["metrics"]``) of every job it ran fresh — never of a cache
  hit or a failed slot — so :attr:`SweepOutcome.metrics`
  is the sweep's whole manifest, for the caller to fold where it wants.

The supervision state machine per job::

    QUEUED -> RUNNING -> done        (worker reported a result)
                      -> exception   -\\
                      -> timeout      }-> retry (backoff) or JobFailure
                      -> worker-death -/
"""

from __future__ import annotations

import collections
import hashlib
import heapq
import importlib
import itertools
import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import SweepSupervision
from ..metrics.registry import MetricsRegistry
from .cache import ResultCache

#: Failure kinds reported by the supervisor.
FAILURE_KINDS = ("exception", "timeout", "worker-death")


@dataclass
class JobFailure:
    """Structured record of a job whose attempts were all exhausted.

    Appears *in place* of the job's result in the sweep results list (in
    graceful mode) and in the failure manifest.
    """

    index: int
    fn: str
    key: str
    #: Kind of the final failed attempt (one of :data:`FAILURE_KINDS`).
    kind: str
    message: str
    attempts: int
    #: Per-attempt records: ``{"attempt", "kind", "message", ...}``.
    history: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "fn": self.fn,
            "key": self.key,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "history": list(self.history),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobFailure(job {self.index}, {self.kind} after "
            f"{self.attempts} attempt(s): {self.message})"
        )


class SweepError(RuntimeError):
    """Raised in strict mode when a sweep finishes with failed jobs.

    Raised only *after* the sweep has run to completion — every healthy
    job's result has been written to the result store, so rerunning the
    sweep executes only the failed points.
    """

    def __init__(self, failures: Sequence[JobFailure],
                 results: Sequence[Any]) -> None:
        self.failures = list(failures)
        self.results = list(results)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} of {len(results)} sweep job(s) failed; "
            f"first: {first.kind} on job {first.index} after "
            f"{first.attempts} attempt(s): {first.message}"
        )


@dataclass
class SweepOutcome:
    """Everything a supervised sweep produced.

    ``results`` is in job order; failed slots hold :class:`JobFailure`
    instances.  ``counters`` aggregates supervision events (attempts,
    retries, per-kind failures, cache hits) as plain ints.
    """

    results: List[Any]
    failures: List[JobFailure]
    counters: Dict[str, int]
    #: Labeled metrics manifest of the sweep (``repro.metrics`` shape):
    #: its supervision counters plus the engine profiles of the jobs it
    #: ran fresh.  Fold it with ``MetricsRegistry.merge_manifest``.
    metrics: Dict[str, Any]
    quarantines: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def backoff_delay(policy: SweepSupervision, key: str, attempt: int) -> float:
    """Backoff before retrying ``attempt`` (1-based) of the job ``key``.

    Exponential in the attempt number, capped, with *deterministic*
    jitter: the jitter fraction is read off a SHA-256 of the job key and
    attempt, so two runs of the same sweep produce the same schedule
    while distinct jobs still decorrelate (no thundering-herd retry).
    """
    delay = min(
        policy.backoff_base_s * policy.backoff_factor ** (attempt - 1),
        policy.backoff_max_s,
    )
    if policy.backoff_jitter:
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2 ** 32
        delay *= 1.0 + policy.backoff_jitter * fraction
    return delay


def _attempt_main(conn, job) -> None:
    """Worker-process entry: run one attempt, report over the pipe.

    Catches ``BaseException`` so even ``SystemExit``/``KeyboardInterrupt``
    raised by a workload come back as structured failures; only a death
    that bypasses Python entirely (``os._exit``, signals, segfaults)
    reaches the parent as a bare pipe EOF.
    """
    from .runner import execute

    try:
        result = execute(job)
        message = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - crash isolation boundary
        message = (
            "error",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )
    try:
        conn.send(message)
    finally:
        conn.close()


def _preload_workloads(fns) -> None:
    """Import each distinct ``repro`` workload module in the parent,
    before forking.

    Forked workers then inherit the simulator instead of importing (and,
    without bytecode caches, compiling) it once per attempt.  Only
    ``repro.*`` modules are preloaded, since their import is known to be
    safe; any other module is imported in its worker, where a hang, an
    exit or a crash at import stays contained.  Best-effort: a module
    that fails to import here fails each attempt in its worker, with the
    usual failure kind and history.
    """
    modules = {fn.rpartition(".")[0] for fn in fns}
    for module in sorted(m for m in modules if m.startswith("repro.")):
        try:
            importlib.import_module(module)
        except Exception:  # noqa: BLE001 - the worker reports it
            pass


def _kill(process) -> None:
    """Terminate a worker process, escalating to SIGKILL if needed."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(0.5)
    if process.is_alive():
        process.kill()
        process.join(0.5)


@dataclass
class _Attempt:
    """One in-flight worker process."""

    index: int
    job: Any
    key: str
    attempt: int
    history: List[Dict[str, Any]]
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]


def run_supervised(
    jobs: Sequence[Any],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    *,
    policy: Optional[SweepSupervision] = None,
    mp_context=None,
    on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> SweepOutcome:
    """Run a sweep under per-job supervision; never aborts on one job.

    Results come back in job order; a job whose attempts are exhausted
    yields a :class:`JobFailure` in its slot (callers wanting a raise
    raise ``SweepError(outcome.failures, outcome.results)``).  With a
    ``cache``, points already in the store are answered from it without
    execution and every completed point is written through as it
    arrives, so a rerun of an interrupted sweep executes only the points
    that never finished.  On ``KeyboardInterrupt`` (or any other escaping
    exception, including one raised by ``progress``) every in-flight
    worker is killed before the exception propagates.

    ``on_event`` receives fine-grained supervision events — ``launch``,
    ``ok``, ``fail``, ``cache-hit`` — each with a small info
    dict (``index``, plus ``attempt``/``retry``/``kind`` where they
    apply); :class:`repro.metrics.SweepProgress` plugs in here.  Labeled
    supervision metrics and the engine profiles of fresh jobs land in a
    registry of the sweep's own, returned as :attr:`SweepOutcome.metrics`;
    no other registry is written.
    """
    policy = policy or SweepSupervision.from_env()
    total = len(jobs)
    results: List[Any] = [None] * total
    failures: Dict[int, JobFailure] = {}
    counters: collections.Counter = collections.Counter()
    done = 0

    registry = MetricsRegistry()
    m_completed = registry.counter("sweep_jobs_total", state="completed")
    m_failed = registry.counter("sweep_jobs_total", state="failed")
    m_cache_hit = registry.counter(
        "sweep_jobs_total",
        "Sweep jobs by terminal state (completed/failed) or skip "
        "reason (cache_hit).",
        state="cache_hit",
    )
    m_attempts = registry.counter(
        "sweep_attempts_total", "Worker processes launched."
    )
    m_attempt_failures = {
        kind: registry.counter(
            "sweep_attempt_failures_total",
            "Failed attempts by kind (terminal or retried).",
            kind=kind,
        )
        for kind in FAILURE_KINDS
    }
    m_retries = registry.counter(
        "sweep_retries_total", "Attempts re-queued after a failure."
    )
    m_backoff = registry.sampler(
        "sweep_backoff_seconds", "Retry backoff delays scheduled."
    )
    m_lifetime = registry.sampler(
        "sweep_worker_lifetime_seconds",
        "Wall-clock lifetime of finished worker processes.",
    )
    m_quarantined = registry.counter(
        "sweep_quarantined_total", "Cache entries quarantined this sweep."
    )
    m_workers = registry.gauge(
        "sweep_workers", "Worker slots used by this sweep."
    )

    def emit(event: str, **info: Any) -> None:
        if on_event is not None:
            on_event(event, info)

    def report() -> None:
        if progress is not None:
            progress(done, total)

    version = cache.code_version if cache is not None else None
    keys = [job.key(version) for job in jobs]

    quarantine_base = cache.quarantined if cache is not None else 0

    pending: List[int] = []
    for index in range(total):
        hit = cache.get(keys[index]) if cache is not None else None
        if hit is None:
            pending.append(index)
            continue
        results[index] = hit
        counters["cache_hits"] += 1
        m_cache_hit.inc()
        done += 1
        emit("cache-hit", index=index)
        report()

    def finish_success(attempt: _Attempt, result: Any) -> None:
        nonlocal done
        if cache is not None:
            result = cache.put(attempt.key, result)
        results[attempt.index] = result
        if isinstance(result, dict) and result.get("metrics"):
            registry.merge_manifest(result["metrics"])
        elapsed = time.monotonic() - attempt.started
        m_completed.inc()
        m_lifetime.add(elapsed)
        done += 1
        emit(
            "ok",
            index=attempt.index,
            attempt=attempt.attempt,
            elapsed_s=round(elapsed, 4),
        )
        report()

    if pending:
        if workers is None:
            workers = min(len(pending), multiprocessing.cpu_count())
        workers = max(1, workers)
        m_workers.set(workers)
        ctx = mp_context or multiprocessing.get_context()
        _preload_workloads(jobs[index].fn for index in pending)

        queue: collections.deque = collections.deque(
            (index, 1, []) for index in pending
        )
        waiting: List = []  # heap of (ready_time, seq, queue entry)
        inflight: Dict[Any, _Attempt] = {}
        sequence = itertools.count()

        def finish_failure(attempt: _Attempt, kind: str,
                           message: str, detail: str = "") -> None:
            nonlocal done
            counters[f"failures_{kind.replace('-', '_')}"] += 1
            m_attempt_failures[kind].inc()
            elapsed = time.monotonic() - attempt.started
            m_lifetime.add(elapsed)
            record = {
                "attempt": attempt.attempt,
                "kind": kind,
                "message": message,
                "elapsed_s": round(elapsed, 4),
            }
            if detail:
                record["detail"] = detail
            attempt.history.append(record)
            if attempt.attempt < policy.max_attempts:
                counters["retries"] += 1
                m_retries.inc()
                delay = backoff_delay(policy, attempt.key, attempt.attempt)
                m_backoff.add(delay)
                ready = time.monotonic() + delay
                heapq.heappush(waiting, (
                    ready, next(sequence),
                    (attempt.index, attempt.attempt + 1, attempt.history),
                ))
                emit(
                    "fail",
                    index=attempt.index,
                    attempt=attempt.attempt,
                    kind=kind,
                    retry=True,
                    message=message,
                )
                return
            failure = JobFailure(
                index=attempt.index,
                fn=attempt.job.fn,
                key=attempt.key,
                kind=kind,
                message=message,
                attempts=attempt.attempt,
                history=attempt.history,
            )
            failures[attempt.index] = failure
            results[attempt.index] = failure
            m_failed.inc()
            done += 1
            emit(
                "fail",
                index=attempt.index,
                attempt=attempt.attempt,
                kind=kind,
                retry=False,
                message=message,
            )
            report()

        def launch(index: int, attempt_no: int,
                   history: List[Dict[str, Any]]) -> None:
            job = jobs[index]
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_attempt_main, args=(send_conn, job), daemon=True
            )
            process.start()
            send_conn.close()
            now = time.monotonic()
            deadline = (
                now + policy.timeout_s if policy.timeout_s is not None
                else None
            )
            inflight[recv_conn] = _Attempt(
                index=index, job=job, key=keys[index], attempt=attempt_no,
                history=history, process=process, conn=recv_conn,
                started=now, deadline=deadline,
            )
            counters["attempts"] += 1
            m_attempts.inc()
            emit("launch", index=index, attempt=attempt_no)

        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, entry = heapq.heappop(waiting)
                    queue.append(entry)
                while queue and len(inflight) < workers:
                    launch(*queue.popleft())
                if not inflight:
                    if waiting:
                        pause = waiting[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(min(pause, 0.05))
                    continue

                timeout = 0.05
                deadlines = [
                    attempt.deadline for attempt in inflight.values()
                    if attempt.deadline is not None
                ]
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines) - now))
                if waiting:
                    timeout = min(timeout, max(0.0, waiting[0][0] - now))
                ready = multiprocessing.connection.wait(
                    list(inflight), timeout=timeout
                )

                for conn in ready:
                    attempt = inflight.pop(conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        message = None
                    conn.close()
                    attempt.process.join(5)
                    if message is None:
                        code = attempt.process.exitcode
                        finish_failure(
                            attempt, "worker-death",
                            f"worker exited with code {code} before "
                            f"reporting a result",
                        )
                    elif message[0] == "ok":
                        finish_success(attempt, message[1])
                    else:
                        _, exc_type, exc_message, tb = message
                        finish_failure(
                            attempt, "exception",
                            f"{exc_type}: {exc_message}", detail=tb,
                        )

                now = time.monotonic()
                for conn, attempt in list(inflight.items()):
                    if attempt.deadline is not None and now >= attempt.deadline:
                        inflight.pop(conn)
                        _kill(attempt.process)
                        conn.close()
                        finish_failure(
                            attempt, "timeout",
                            f"no result within {policy.timeout_s:g}s; "
                            f"worker killed",
                        )
        except BaseException:
            # Deterministic teardown: no orphan workers, no lost progress.
            for attempt in inflight.values():
                _kill(attempt.process)
                attempt.conn.close()
            inflight.clear()
            raise

    quarantines: List[Dict[str, Any]] = []
    if cache is not None and cache.quarantined > quarantine_base:
        quarantines = list(cache.quarantines[quarantine_base:])
        counters["quarantined"] = len(quarantines)
        m_quarantined.inc(len(quarantines))

    return SweepOutcome(
        results=results,
        failures=[failures[index] for index in sorted(failures)],
        counters=dict(counters),
        metrics=registry.to_manifest(),
        quarantines=quarantines,
    )
