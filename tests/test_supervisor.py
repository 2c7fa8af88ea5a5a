"""Supervised sweep execution: the failure taxonomy, end to end.

Every test is seeded and deterministic; fault schedules come from the
chaos workload's on-disk attempt ledger, timeouts are tens of
milliseconds, and backoff jitter is content-hash derived — no wall-clock
entropy anywhere.
"""

import multiprocessing
import sys
import time

import pytest

from repro.config import SweepSupervision, small_config
from repro.runner import (
    JobFailure,
    ResultCache,
    SimJob,
    SweepError,
    run_supervised,
)
from repro.runner.chaos import CHAOS_FN, CHAOS_STATE_ENV, attempts_recorded
from repro.runner.runner import execute
from repro.runner.supervisor import backoff_delay


def double(config, factor=2):
    """Trivial healthy workload (picklable by dotted path)."""
    return {"seed": config.seed, "value": config.seed * factor}


DOUBLE = f"{__name__}.double"


def explode(config):
    """Workload that always raises."""
    raise RuntimeError("boom")


EXPLODE = f"{__name__}.explode"

#: Fast test policy: tiny backoff, no timeout unless a test sets one.
FAST = SweepSupervision(backoff_base_s=0.01, backoff_max_s=0.04)


def chaos_job(token, plan, value=1, hang_s=5.0):
    return SimJob(
        fn=CHAOS_FN,
        config=small_config(),
        params={"token": token, "plan": plan, "value": value,
                "hang_s": hang_s},
    )


@pytest.fixture
def chaos_state(tmp_path, monkeypatch):
    state = tmp_path / "chaos-state"
    monkeypatch.setenv(CHAOS_STATE_ENV, str(state))
    return state


class TestHealthySweeps:
    def _jobs(self, count=4):
        config = small_config()
        return [SimJob(fn=DOUBLE, config=config, seed=seed)
                for seed in range(1, count + 1)]

    def test_matches_in_process_execute_in_job_order(self):
        jobs = self._jobs(5)
        outcome = run_supervised(jobs, workers=2, policy=FAST)
        assert outcome.results == [execute(job) for job in jobs]
        assert outcome.ok
        assert outcome.counters["attempts"] == 5

    def test_progress_sees_every_completion(self):
        seen = []
        run_supervised(
            self._jobs(3), workers=1, policy=FAST,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_empty_sweep(self):
        outcome = run_supervised([], policy=FAST)
        assert outcome.results == []
        assert outcome.ok

    def test_write_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = self._jobs(3)
        first = run_supervised(jobs, workers=1, cache=cache, policy=FAST)
        assert cache.misses == 3
        second = run_supervised(jobs, workers=1, cache=cache, policy=FAST)
        assert cache.hits == 3
        assert second.results == first.results
        assert second.counters["cache_hits"] == 3
        assert second.counters.get("attempts", 0) == 0


class TestTimeoutKillRetry:
    def test_hung_worker_is_killed_and_retry_succeeds(self, chaos_state):
        job = chaos_job("hangs", "hang,ok", value=7)
        policy = FAST.replace(timeout_s=0.1, max_attempts=2)
        start = time.monotonic()
        outcome = run_supervised([job], workers=1, policy=policy)
        elapsed = time.monotonic() - start
        assert outcome.ok
        assert outcome.results[0]["value"] == 7
        assert outcome.counters["failures_timeout"] == 1
        assert outcome.counters["retries"] == 1
        assert outcome.counters["attempts"] == 2
        # The 5s injected hang must not be waited out.
        assert elapsed < 3.0
        assert attempts_recorded(chaos_state, "hangs") == 2

    def test_permanent_hang_exhausts_attempts(self, chaos_state):
        job = chaos_job("wedged", "hang")
        policy = FAST.replace(timeout_s=0.05, max_attempts=2)
        outcome = run_supervised([job], workers=1, policy=policy)
        assert not outcome.ok
        failure = outcome.results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert len(failure.history) == 2

    def test_no_leaked_workers_after_kills(self, chaos_state):
        job = chaos_job("wedged2", "hang")
        policy = FAST.replace(timeout_s=0.05, max_attempts=2)
        run_supervised([job], workers=1, policy=policy)
        assert multiprocessing.active_children() == []


class TestCrashIsolation:
    def test_worker_death_is_contained_and_retried(self, chaos_state):
        jobs = [chaos_job("dies", "exit,ok", value=3),
                chaos_job("fine", "ok", value=4)]
        outcome = run_supervised(jobs, workers=2, policy=FAST)
        assert outcome.ok
        assert outcome.results[0]["value"] == 3
        assert outcome.results[1]["value"] == 4
        assert outcome.counters["failures_worker_death"] == 1

    def test_exception_yields_structured_failure_not_abort(
        self, chaos_state
    ):
        jobs = [chaos_job("boom", "raise"), chaos_job("ok1", "ok", value=9)]
        policy = FAST.replace(max_attempts=3)
        outcome = run_supervised(jobs, workers=2, policy=policy)
        failure = outcome.results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"
        assert "chaos: injected exception" in failure.message
        assert failure.attempts == 3
        # Sibling job unharmed.
        assert outcome.results[1]["value"] == 9
        assert outcome.failures == [failure]
        # History records every attempt with a traceback detail.
        assert [h["attempt"] for h in failure.history] == [1, 2, 3]
        assert all("RuntimeError" in h["detail"] for h in failure.history)

    def test_failure_record_shape(self, chaos_state):
        jobs = [chaos_job("boom2", "raise")]
        outcome = run_supervised(
            jobs, workers=1, policy=FAST.replace(max_attempts=1)
        )
        assert outcome.ok is False
        (failure,) = outcome.failures
        entry = failure.to_dict()
        assert entry["kind"] == "exception"
        assert entry["key"] == jobs[0].key()
        assert entry["attempts"] == 1


def run_strict(jobs, **kwargs):
    """A sweep that raises on failed jobs, as the CLI sweeps do."""
    outcome = run_supervised(jobs, **kwargs)
    if outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    return outcome.results


class TestStrictMode:
    def test_strict_raises_after_completion(self, chaos_state, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [chaos_job("sick", "raise"), chaos_job("well", "ok", value=5)]
        with pytest.raises(SweepError) as excinfo:
            run_strict(jobs, workers=2, cache=cache,
                       policy=FAST.replace(max_attempts=1))
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].index == 0
        # The healthy sibling completed and was cached before the raise.
        assert error.results[1]["value"] == 5
        key = cache.key(jobs[1].fn, jobs[1].resolved_config(),
                        jobs[1].params)
        stored = cache.get(key)
        assert stored["token"] == "well"
        assert stored["value"] == 5

    def test_graceful_returns_failures_inline(self, chaos_state):
        jobs = [chaos_job("sick2", "raise"), chaos_job("well2", "ok")]
        results = run_supervised(
            jobs, workers=2, policy=FAST.replace(max_attempts=1)
        ).results
        assert isinstance(results[0], JobFailure)
        assert results[1]["token"] == "well2"

    def test_default_policy_comes_from_the_environment(
        self, tmp_path, monkeypatch
    ):
        # Without a policy the sweep is still supervised, under the
        # environment's defaults: a raising job becomes a SweepError
        # after its healthy sibling ran and was cached.
        monkeypatch.setenv("REPRO_SWEEP_BACKOFF_S", "0.01")
        cache = ResultCache(tmp_path / "cache")
        config = small_config()
        jobs = [SimJob(fn=EXPLODE, config=config, seed=1),
                SimJob(fn=DOUBLE, config=config, seed=2)]
        with pytest.raises(SweepError) as excinfo:
            run_strict(jobs, workers=1, cache=cache)
        (failure,) = excinfo.value.failures
        assert failure.index == 0 and failure.kind == "exception"
        assert "boom" in failure.message
        assert cache.get(jobs[1].key(cache.code_version)) == {
            "seed": 2, "value": 4,
        }


class TestBackoff:
    def test_deterministic_and_bounded(self):
        policy = SweepSupervision(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5,
            backoff_jitter=0.25,
        )
        first = backoff_delay(policy, "deadbeef", 1)
        assert first == backoff_delay(policy, "deadbeef", 1)
        assert 0.1 <= first <= 0.1 * 1.25
        # Exponential growth, capped.
        assert backoff_delay(policy, "deadbeef", 4) <= 0.5 * 1.25
        # Distinct jobs decorrelate.
        assert backoff_delay(policy, "deadbeef", 1) != backoff_delay(
            policy, "cafebabe", 1
        )

    def test_zero_jitter_is_pure_exponential(self):
        policy = SweepSupervision(
            backoff_base_s=0.1, backoff_factor=3.0, backoff_max_s=10.0,
            backoff_jitter=0.0,
        )
        assert backoff_delay(policy, "k", 1) == pytest.approx(0.1)
        assert backoff_delay(policy, "k", 2) == pytest.approx(0.3)
        assert backoff_delay(policy, "k", 3) == pytest.approx(0.9)


class TestPolicyKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSupervision(timeout_s=0)
        with pytest.raises(ValueError):
            SweepSupervision(max_attempts=0)
        with pytest.raises(ValueError):
            SweepSupervision(backoff_factor=0.5)
        with pytest.raises(ValueError):
            SweepSupervision(backoff_jitter=2.0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT_S", "12.5")
        monkeypatch.setenv("REPRO_SWEEP_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_SWEEP_BACKOFF_S", "0.25")
        policy = SweepSupervision.from_env()
        assert policy.timeout_s == 12.5
        assert policy.max_attempts == 5
        assert policy.backoff_base_s == 0.25

    def test_from_env_ignores_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT_S", "soon")
        policy = SweepSupervision.from_env()
        assert policy.timeout_s is None

    def test_second_attempt_recovers(self, chaos_state):
        # max_attempts=2: "raise,ok" recovers on its retry.
        jobs = [chaos_job("flaky", "raise,ok", value=2)]
        outcome = run_supervised(
            jobs, workers=1, policy=FAST.replace(max_attempts=2)
        )
        assert outcome.results[0]["value"] == 2
        assert outcome.counters["retries"] == 1


class TestTeardown:
    def test_progress_exception_kills_inflight_and_keeps_finished_points(
        self, chaos_state, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        jobs = [chaos_job(f"t{i}", "ok", value=i + 1) for i in range(3)]

        calls = []

        def progress(done, total):
            calls.append(done)
            if done == 2:
                raise RuntimeError("observer crashed")

        with pytest.raises(RuntimeError, match="observer crashed"):
            run_supervised(jobs, workers=1, policy=FAST,
                           progress=progress, cache=cache)
        assert multiprocessing.active_children() == []
        # The store kept everything completed before the crash.
        stored = [cache.get(job.key(cache.code_version)) for job in jobs]
        assert [r["value"] for r in stored[:2]] == [1, 2]
        assert stored[2] is None

    def test_rerun_after_interrupt_executes_only_the_rest(
        self, chaos_state, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        jobs = [chaos_job(f"r{i}", "ok", value=i + 1) for i in range(4)]

        def explode_late(done, total):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_supervised(jobs, workers=1, policy=FAST,
                           progress=explode_late, cache=cache)
        executed_before = [
            attempts_recorded(chaos_state, f"r{i}") for i in range(4)
        ]
        assert executed_before == [1, 1, 0, 0]

        outcome = run_supervised(jobs, workers=1, policy=FAST, cache=cache)
        assert outcome.ok
        assert outcome.counters["cache_hits"] == 2
        assert outcome.counters["attempts"] == 2
        # Only the two missing points executed on the rerun.
        assert [
            attempts_recorded(chaos_state, f"r{i}") for i in range(4)
        ] == [1, 1, 1, 1]
        # Bit-identical to an uninterrupted, uncached run.
        uninterrupted = run_supervised(jobs, workers=1, policy=FAST)
        assert outcome.results == uninterrupted.results


class _StartRecordingContext:
    """Fork context that notes, at each ``Process.start``, whether the
    parent already holds ``module``."""

    def __init__(self, module):
        self._ctx = multiprocessing.get_context("fork")
        self._module = module
        self.held_at_start = []

    def Pipe(self, *args, **kwargs):
        return self._ctx.Pipe(*args, **kwargs)

    def Process(self, *args, **kwargs):
        process = self._ctx.Process(*args, **kwargs)
        start = process.start

        def recording_start():
            self.held_at_start.append(self._module in sys.modules)
            start()

        process.start = recording_start
        return process


class TestWorkloadPreload:
    def test_parent_holds_the_workload_module_before_the_first_fork(
        self, monkeypatch
    ):
        import repro.runner

        module = "repro.runner.workloads"
        monkeypatch.delattr(repro.runner, "workloads", raising=False)
        monkeypatch.delitem(sys.modules, module, raising=False)
        context = _StartRecordingContext(module)
        jobs = [SimJob(fn=f"{module}.service_probe_point",
                       config=small_config(), params={"value": value})
                for value in (1.0, 2.0)]
        outcome = run_supervised(jobs, workers=1, policy=FAST,
                                 mp_context=context)
        assert outcome.ok
        assert [row["value"] for row in outcome.results] == [1.0, 2.0]
        assert context.held_at_start == [True, True]

    def test_module_outside_repro_is_left_to_the_worker(
        self, tmp_path, monkeypatch
    ):
        module = "supervisor_preload_probe"
        (tmp_path / f"{module}.py").write_text(
            "def point(config, value=0):\n"
            "    return {'value': value}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        assert module not in sys.modules
        context = _StartRecordingContext(module)
        jobs = [SimJob(fn=f"{module}.point", config=small_config(),
                       params={"value": value}) for value in (1, 2)]
        try:
            outcome = run_supervised(jobs, workers=1, policy=FAST,
                                     mp_context=context)
            assert context.held_at_start == [False, False]
        finally:
            sys.modules.pop(module, None)
        assert outcome.ok
        assert [row["value"] for row in outcome.results] == [1, 2]

    def test_unimportable_module_still_fails_in_the_worker(self):
        job = SimJob(fn="repro_no_such_module.point", config=small_config())
        outcome = run_supervised([job], workers=1, policy=FAST)
        [failure] = outcome.failures
        assert failure.kind == "exception"
        assert failure.attempts == FAST.max_attempts
        assert [entry["kind"] for entry in failure.history] == (
            ["exception"] * FAST.max_attempts
        )
        assert "ModuleNotFoundError" in failure.message
