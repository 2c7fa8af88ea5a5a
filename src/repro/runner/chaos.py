"""Deterministic chaos harness for the supervised sweep runner.

Fault-tolerance code is only trustworthy if the faults it claims to
survive are actually injected and survived, repeatably.  This module
provides both halves:

* :func:`chaos_point` — a sweep workload whose behaviour is *scheduled
  per attempt*: a plan like ``"hang,ok"`` makes the first attempt hang
  (to be killed by the supervisor's timeout) and the second succeed.
  Attempt numbers are tracked in an on-disk ledger (one file per job
  token under ``$REPRO_CHAOS_STATE``) so the schedule survives process
  boundaries — the workload itself stays a pure dotted-path function
  with content-hashable parameters.
* :func:`run_chaos` — the end-to-end drill: build an N-job sweep, seed a
  deterministic mix of fault kinds (transient exceptions, hangs past the
  timeout, worker deaths via ``os._exit``, unserialisable garbage,
  permanent failures), run it supervised, and *verify* the contract:

  1. every healthy job's result is bit-identical to a fault-free
     reference sweep;
  2. jobs that recover via retry produce exactly the fault-free result;
  3. exhausted jobs surface as structured ``JobFailure`` records, and a
     rerun against the same result store re-executes only those (the
     store answers the rest);
  4. corrupted cache entries are quarantined and transparently
     recomputed, bit-identical again.

Everything is seeded: the fault assignment comes from ``random.Random
(seed)``, retry backoff jitter is content-hash derived, and the workload
payloads depend only on (config seed, token) — a chaos run is as
replayable as any other experiment in this repo.

CLI: ``python -m repro chaos [--quick]`` (the CI smoke job runs the
quick budget and uploads the failure manifest).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..config import GpuConfig, SweepSupervision, small_config
from .cache import ResultCache
from .runner import SimJob
from .supervisor import JobFailure, SweepOutcome, run_supervised

#: Environment variable naming the attempt-ledger directory.  Passed via
#: the environment (not workload params) so it never pollutes the
#: content-hash job keys — two chaos runs with different scratch dirs
#: but the same plan share cache entries.
CHAOS_STATE_ENV = "REPRO_CHAOS_STATE"

#: Exit code used by the ``exit`` fault (recognisable in manifests).
CHAOS_EXIT_CODE = 41

#: Fault plans, keyed by kind.  Each plan is a comma-separated behaviour
#: schedule consumed one step per attempt (the last step repeats).  The
#: ``fatal-*`` plans outlast the default 3-attempt budget, producing a
#: ``JobFailure`` — and then succeed on the next attempt, which is
#: exactly what a rerun against the same store should execute.
FAULT_PLANS: Dict[str, str] = {
    "transient-raise": "raise,ok",
    "transient-hang": "hang,ok",
    "transient-exit": "exit,ok",
    "fatal-raise": "raise,raise,raise,ok",
    "fatal-garbage": "garbage,garbage,garbage,ok",
}


def _attempt_number(state_dir: Path, token: str) -> int:
    """Record one attempt for ``token`` and return its 1-based number.

    The ledger is a file that grows by one byte per attempt; append +
    ``tell`` is atomic enough for the supervisor's one-process-per-job
    execution model and keeps the mechanism trivially inspectable.
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    with open(state_dir / f"{token}.attempts", "ab") as handle:
        handle.write(b"x")
        handle.flush()
        return handle.tell()


def attempts_recorded(state_dir: Path, token: str) -> int:
    """How many attempts the ledger has seen for ``token`` (0 if none)."""
    path = Path(state_dir) / f"{token}.attempts"
    try:
        return path.stat().st_size
    except OSError:
        return 0


def chaos_point(
    config: GpuConfig,
    token: str,
    plan: str = "ok",
    value: int = 1,
    hang_s: float = 30.0,
) -> Dict[str, Any]:
    """One chaos sweep point: behave per the plan step for this attempt.

    Behaviours: ``ok`` (return a seeded payload), ``raise`` (raise
    ``RuntimeError``), ``hang`` (sleep ``hang_s`` — far past any sane
    timeout), ``exit`` (``os._exit`` without reporting: a worker death),
    ``garbage`` (return a non-JSON-serialisable object, which fails the
    runner's serialisation boundary).  The successful payload depends
    only on ``(config.seed, token, value)`` — never on the attempt or
    the plan history — so a recovered job is bit-identical to one that
    never faulted.
    """
    state = os.environ.get(CHAOS_STATE_ENV)
    attempt = _attempt_number(Path(state), token) if state else 1
    steps = [step.strip() for step in plan.split(",") if step.strip()]
    step = steps[min(attempt, len(steps)) - 1] if steps else "ok"
    if step == "raise":
        raise RuntimeError(
            f"chaos: injected exception (token={token}, attempt={attempt})"
        )
    if step == "exit":
        os._exit(CHAOS_EXIT_CODE)
    if step == "hang":
        time.sleep(hang_s)
    if step == "garbage":
        return {"token": token, "oops": {1, 2, 3}}  # type: ignore[dict-item]
    rng = random.Random((config.seed << 16) ^ (value * 2654435761 % 2**31))
    return {
        "token": token,
        "value": value,
        "payload": [rng.randint(0, 255) for _ in range(8)],
    }


#: Dotted path of the workload (what SimJobs reference).
CHAOS_FN = f"{__name__}.chaos_point"


@dataclass
class ChaosReport:
    """Outcome of one full chaos drill, JSON-ready via :meth:`to_dict`."""

    seed: int
    jobs: int
    fault_plan: Dict[str, str]
    healthy_identical: bool
    recovered_identical: bool
    failures: List[Dict[str, Any]]
    expected_failures: List[str]
    counters: Dict[str, int]
    resume: Dict[str, Any]
    quarantine: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: Labeled metrics manifest of the chaos sweep itself (the drill is
    #: the one sweep in the repo guaranteed to exercise every failure
    #: kind, so its manifest doubles as a metrics-plane fixture).
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "fault_plan": dict(self.fault_plan),
            "ok": self.ok,
            "healthy_identical": self.healthy_identical,
            "recovered_identical": self.recovered_identical,
            "failures": list(self.failures),
            "expected_failures": list(self.expected_failures),
            "counters": dict(self.counters),
            "resume": dict(self.resume),
            "quarantine": dict(self.quarantine),
            "problems": list(self.problems),
            "metrics": self.metrics,
        }


def _token(index: int) -> str:
    return f"job{index:03d}"


def _build_jobs(
    config: GpuConfig,
    num_jobs: int,
    plans: Dict[int, str],
    hang_s: float,
) -> List[SimJob]:
    return [
        SimJob(
            fn=CHAOS_FN,
            config=config,
            params={
                "token": _token(index),
                "plan": plans.get(index, "ok"),
                "value": index + 1,
                "hang_s": hang_s,
            },
        )
        for index in range(num_jobs)
    ]


def assign_faults(
    seed: int, num_jobs: int, kinds: Sequence[str]
) -> Dict[int, str]:
    """Deterministically place one fault of each kind (cycling) on a
    seeded sample of job indices."""
    rng = random.Random(seed)
    count = min(len(kinds), num_jobs)
    indices = sorted(rng.sample(range(num_jobs), count)) if count else []
    return {
        index: FAULT_PLANS[kinds[position % len(kinds)]]
        for position, index in enumerate(indices)
    }


def run_chaos(
    seed: int = 0,
    num_jobs: int = 32,
    kinds: Sequence[str] = tuple(FAULT_PLANS),
    workers: Optional[int] = None,
    timeout_s: float = 0.5,
    hang_s: float = 30.0,
    backoff_s: float = 0.01,
    scratch: Optional[Path] = None,
    config: Optional[GpuConfig] = None,
    on_progress=None,
) -> ChaosReport:
    """Run the full chaos drill and verify the fault-tolerance contract.

    Builds a ``num_jobs``-point sweep, injects one fault plan of each
    requested kind at seeded positions, runs it under supervision
    (timeout ``timeout_s``, 3 attempts, fast deterministic backoff),
    then checks healthy bit-identity against a fault-free reference,
    resume-after-failure, and cache-corruption quarantine.  All scratch
    state (attempt ledgers, cache) lives under ``scratch`` (a
    temp dir by default).
    """
    config = config or small_config()
    owns_scratch = scratch is None
    scratch = Path(scratch or tempfile.mkdtemp(prefix="repro-chaos-"))
    problems: List[str] = []

    plans = assign_faults(seed, num_jobs, kinds)
    jobs = _build_jobs(config, num_jobs, plans, hang_s=hang_s)
    policy = SweepSupervision(
        timeout_s=timeout_s, max_attempts=3,
        backoff_base_s=backoff_s, backoff_max_s=backoff_s * 4,
    )

    # Fault-free reference: identical params for healthy jobs (plan
    # "ok"), so their content-hash keys — and, if the contract holds,
    # their results — match the chaos run exactly.  Faulty jobs run
    # their *plans replaced by "ok"* to produce the payload a recovered
    # job must reproduce.  No cache, separate ledger: nothing shared.
    reference_jobs = _build_jobs(config, num_jobs, {}, hang_s=hang_s)
    old_state = os.environ.get(CHAOS_STATE_ENV)
    try:
        os.environ[CHAOS_STATE_ENV] = str(scratch / "reference-state")
        reference = run_supervised(
            reference_jobs, workers=workers,
            policy=SweepSupervision(timeout_s=None, max_attempts=1),
        )
        if reference.failures:
            problems.append(
                f"reference sweep itself failed: {reference.failures[0]}"
            )

        # ---- Chaos run ------------------------------------------------
        os.environ[CHAOS_STATE_ENV] = str(scratch / "chaos-state")
        cache = ResultCache(scratch / "cache")
        outcome = run_supervised(
            jobs, workers=workers, cache=cache, progress=on_progress,
            policy=policy,
        )

        healthy = [i for i in range(num_jobs) if i not in plans]
        transient = sorted(
            i for i, plan in plans.items() if plan.split(",")[-1] == "ok"
            and len([s for s in plan.split(",") if s != "ok"])
            < policy.max_attempts
        )
        fatal = sorted(set(plans) - set(transient))

        healthy_identical = all(
            outcome.results[i] == reference.results[i] for i in healthy
        )
        if not healthy_identical:
            problems.append("healthy job results diverged from the "
                            "fault-free reference")
        recovered_identical = all(
            outcome.results[i] == reference.results[i] for i in transient
        )
        if not recovered_identical:
            problems.append("retry-recovered results diverged from the "
                            "fault-free reference")
        failed_indices = sorted(f.index for f in outcome.failures)
        if failed_indices != fatal:
            problems.append(
                f"expected failures at {fatal}, got {failed_indices}"
            )
        if not all(isinstance(outcome.results[i], JobFailure)
                   for i in fatal):
            problems.append("exhausted jobs did not surface as JobFailure "
                            "records in the results")

        # ---- Resume: a rerun re-executes only failed/missing points ----
        ledger = scratch / "chaos-state"
        before = {
            _token(i): attempts_recorded(ledger, _token(i))
            for i in range(num_jobs)
        }
        resumed = run_supervised(
            jobs, workers=workers, cache=cache, policy=policy,
        )
        executed = sorted(
            i for i in range(num_jobs)
            if attempts_recorded(ledger, _token(i)) > before[_token(i)]
        )
        resume_info: Dict[str, Any] = {
            "replayed": resumed.counters.get("cache_hits", 0),
            "reexecuted": executed,
            "failures": len(resumed.failures),
        }
        if executed != fatal:
            problems.append(
                f"resume re-executed {executed}, expected exactly the "
                f"failed points {fatal}"
            )
        if resumed.failures:
            problems.append("resume run still reports failures; fatal "
                            "plans should recover on their next attempt")
        if not all(resumed.results[i] == reference.results[i]
                   for i in range(num_jobs)):
            problems.append("post-resume results are not bit-identical "
                            "to the fault-free reference")

        # ---- Cache corruption -> quarantine ---------------------------
        corrupt = healthy[: min(2, len(healthy))]
        for index in corrupt:
            job = jobs[index]
            key = job.key(cache.code_version)
            path = cache._path(key)
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["result"]["value"] = -999  # bit-rot the stored payload
            path.write_text(json.dumps(entry), encoding="utf-8")
        rerun = run_supervised(
            jobs, workers=workers, cache=cache, policy=policy,
        )
        quarantine_info: Dict[str, Any] = {
            "injected": len(corrupt),
            "quarantined": rerun.counters.get("quarantined", 0),
            "records": rerun.quarantines,
        }
        if rerun.counters.get("quarantined", 0) != len(corrupt):
            problems.append(
                f"expected {len(corrupt)} quarantined entries, got "
                f"{rerun.counters.get('quarantined', 0)}"
            )
        if not all(rerun.results[i] == reference.results[i]
                   for i in corrupt):
            problems.append("recomputed results for quarantined entries "
                            "diverged from the reference")
    finally:
        if old_state is None:
            os.environ.pop(CHAOS_STATE_ENV, None)
        else:
            os.environ[CHAOS_STATE_ENV] = old_state

    # Sanity: the drill must actually have injected what it claims.
    steps = {s for plan in plans.values() for s in plan.split(",")}
    for counter, expected in (
        ("failures_exception", bool(steps & {"raise", "garbage"})),
        ("failures_timeout", "hang" in steps),
        ("failures_worker_death", "exit" in steps),
    ):
        if expected and not outcome.counters.get(counter, 0):
            problems.append(
                f"fault injection gap: no {counter} events despite an "
                f"injected plan that should produce them"
            )

    report = ChaosReport(
        seed=seed,
        jobs=num_jobs,
        fault_plan={_token(i): plans[i] for i in sorted(plans)},
        healthy_identical=healthy_identical,
        recovered_identical=recovered_identical,
        failures=[f.to_dict() for f in outcome.failures],
        expected_failures=[_token(i) for i in fatal],
        counters=outcome.counters,
        resume=resume_info,
        quarantine=quarantine_info,
        problems=problems,
        metrics=outcome.metrics,
    )
    if owns_scratch:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    return report
