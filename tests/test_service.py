"""Sweep-service scheduler tests: dedup, cache fast-path, failure modes.

These cover the scheduler contract directly (single requests, explicit
state assertions); randomized interleavings live in
``test_service_properties.py`` and the full supervised/chaos path in
``test_service_e2e.py``.  The workload is
:func:`repro.runner.workloads.service_probe_point`, whose side-effect
ledger counts actual executions per token — the ground truth "exactly
once" is measured against.
"""

import asyncio
import contextvars
import threading

import pytest

from repro.config import ServiceConfig, SweepSupervision
from repro.metrics.registry import MetricsRegistry
from repro.runner import (
    JobFailure,
    ResultCache,
    ServiceError,
    SimJob,
    SweepService,
    run_supervised,
    serve_requests,
)

PROBE_FN = "repro.runner.workloads.service_probe_point"
CHAOS_FN = "repro.runner.chaos.chaos_point"


def _probe_job(cfg, token, ledger, value=1.0):
    return SimJob(
        PROBE_FN,
        cfg,
        {"token": token, "value": value, "ledger_dir": str(ledger)},
    )


def _ledger_count(ledger, token):
    path = ledger / f"{token}.log"
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


@pytest.fixture
def probe_cfg(quiet_cfg):
    return quiet_cfg


@pytest.mark.usefixtures("inline_service")
class TestScheduler:
    def test_results_in_job_order(self, probe_cfg, tmp_path):
        jobs = [
            _probe_job(probe_cfg, f"t{i}", tmp_path, value=float(i))
            for i in range(4)
        ]
        (results,), manifest = serve_requests(
            [jobs],
            cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
            metrics=MetricsRegistry(),
        )
        assert [r["value"] for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert manifest["dispatched"] == 4
        assert manifest["requests"] == 1

    def test_duplicate_jobs_in_one_request_dedup(self, probe_cfg, tmp_path):
        job = _probe_job(probe_cfg, "dup", tmp_path)
        (results,), manifest = serve_requests(
            [[job, job, job]],
            cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
            metrics=MetricsRegistry(),
        )
        assert _ledger_count(tmp_path, "dup") == 1
        assert results[0] == results[1] == results[2]
        assert manifest["dispatched"] == 1
        assert manifest["attached"] == 2

    def test_store_hit_skips_execution(self, probe_cfg, tmp_path):
        jobs = [_probe_job(probe_cfg, f"t{i}", tmp_path) for i in range(3)]
        cache_root = tmp_path / "cache"

        def _serve():
            return serve_requests(
                [jobs],
                cache=ResultCache(cache_root, metrics=MetricsRegistry()),
                metrics=MetricsRegistry(),
            )

        (first,), manifest_a = _serve()
        (second,), manifest_b = _serve()
        assert manifest_a["dispatched"] == 3
        assert manifest_b["dispatched"] == 0
        assert manifest_b["cache_hit"] == 3
        assert second == first
        # The artifact store — not a re-run — answered the second batch.
        for token in ("t0", "t1", "t2"):
            assert _ledger_count(tmp_path, token) == 1

    @staticmethod
    def _seed_jobs(cfg, ledger):
        # The golden harness sweeps seeds as ``SimJob(..., seed=s)``.
        return [
            SimJob(PROBE_FN, cfg,
                   {"token": f"s{seed}", "ledger_dir": str(ledger)},
                   seed=seed)
            for seed in (7, 8, 9)
        ]

    def test_seed_override_jobs_hit_supervised_results(
        self, probe_cfg, tmp_path
    ):
        jobs = self._seed_jobs(probe_cfg, tmp_path)
        cache_root = tmp_path / "cache"
        stored = run_supervised(
            jobs, workers=1,
            cache=ResultCache(cache_root, metrics=MetricsRegistry()),
        ).results
        (served,), manifest = serve_requests(
            [jobs],
            cache=ResultCache(cache_root, metrics=MetricsRegistry()),
            metrics=MetricsRegistry(),
        )
        assert manifest["cache_hit"] == 3
        assert manifest["dispatched"] == 0
        assert served == stored
        for seed in (7, 8, 9):
            assert _ledger_count(tmp_path, f"s{seed}") == 1

    def test_no_cache_still_dedups_inflight(self, probe_cfg, tmp_path):
        job = _probe_job(probe_cfg, "nc", tmp_path)
        (a, b), manifest = serve_requests(
            [[job], [job]],
            cache=None,
            metrics=MetricsRegistry(),
            stagger_s=0.01,
        )
        assert manifest["dispatched"] + manifest["attached"] == 2
        assert a[0] == b[0]

    def test_manifest_reports_store_counters(self, probe_cfg, tmp_path):
        cache = ResultCache(
            tmp_path / "cache", max_entries=1, metrics=MetricsRegistry()
        )
        jobs = [_probe_job(probe_cfg, f"t{i}", tmp_path) for i in range(3)]
        _, manifest = serve_requests(
            [jobs], cache=cache,
            metrics=MetricsRegistry(), service=ServiceConfig(shards=1),
        )
        assert manifest["cache"]["evictions"] >= 2
        assert manifest["cache"]["max_entries"] == 1

    def test_stats_mirror_registry(self, probe_cfg, tmp_path):
        registry = MetricsRegistry()
        jobs = [_probe_job(probe_cfg, f"t{i}", tmp_path) for i in range(2)]
        _, manifest = serve_requests(
            [jobs, jobs],
            cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
            metrics=registry,
            stagger_s=0.01,
        )
        metrics = registry.to_manifest()["metrics"]
        series = {
            s["labels"]["state"]: s["value"]
            for s in metrics["service_jobs_total"]["series"]
        }
        for state in ("dispatched", "attached", "cache_hit", "completed", "failed"):
            assert series[state] == manifest[state]
        requests = metrics["service_requests_total"]["series"][0]["value"]
        assert requests == manifest["requests"] == 2
        inflight = metrics["service_inflight_jobs"]["series"][0]["value"]
        assert inflight == 0  # everything settled

    def test_store_writes_stay_on_the_loop_thread(
        self, probe_cfg, tmp_path, monkeypatch
    ):
        from repro.runner import service

        put_threads, fold_threads, job_threads = [], [], []
        original_put = ResultCache.put
        original_fold = MetricsRegistry.merge_manifest
        original_run = service.run_supervised
        registry = MetricsRegistry()

        def recording_put(cache, key, result):
            put_threads.append(threading.get_ident())
            return original_put(cache, key, result)

        def recording_fold(target, manifest):
            if target is registry:
                fold_threads.append(threading.get_ident())
            return original_fold(target, manifest)

        def recording_run(jobs, **kwargs):
            job_threads.append(threading.get_ident())
            return original_run(jobs, **kwargs)

        monkeypatch.setattr(ResultCache, "put", recording_put)
        monkeypatch.setattr(MetricsRegistry, "merge_manifest", recording_fold)
        monkeypatch.setattr(service, "run_supervised", recording_run)
        jobs = [_probe_job(probe_cfg, f"t{i}", tmp_path) for i in range(8)]
        _, manifest = serve_requests(
            [jobs],
            cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
            service=ServiceConfig(shards=4),
            metrics=registry,
        )
        # serve_requests runs its event loop on the calling thread.
        loop_thread = threading.get_ident()
        assert manifest["completed"] == 8
        assert put_threads == [loop_thread] * 8
        # Each shard's outcome metrics fold into the service registry
        # on the loop thread, once per job.
        assert fold_threads == [loop_thread] * 8
        assert len(job_threads) == 8
        assert loop_thread not in job_threads

    def test_job_sees_the_submitters_context(
        self, probe_cfg, tmp_path, monkeypatch
    ):
        # A trace parents job spans on the submitting request's span
        # through a ContextVar; shard threads must see its value.
        from repro.runner import service

        request = contextvars.ContextVar("request", default=None)
        seen = []
        original_run = service.run_supervised

        def recording_run(jobs, **kwargs):
            seen.append((jobs[0].params["token"], request.get()))
            return original_run(jobs, **kwargs)

        monkeypatch.setattr(service, "run_supervised", recording_run)

        async def _request(svc, name, tokens):
            request.set(name)
            return await svc.submit(
                [_probe_job(probe_cfg, token, tmp_path) for token in tokens]
            )

        async def _main():
            async with SweepService(
                None, service=ServiceConfig(shards=2),
                metrics=MetricsRegistry(),
            ) as svc:
                await asyncio.gather(
                    _request(svc, "a", ["a0", "a1"]),
                    _request(svc, "b", ["b0"]),
                )

        asyncio.run(_main())
        assert sorted(seen) == [("a0", "a"), ("a1", "a"), ("b0", "b")]


class TestFailureModes:
    def test_inline_exception_propagates_to_subscribers(
        self, probe_cfg, tmp_path, monkeypatch, inline_service
    ):
        # Without a chaos state dir every attempt is attempt 1: plan
        # "raise" raises deterministically, in-process.
        monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
        bad = SimJob(CHAOS_FN, probe_cfg, {"token": "boom", "plan": "raise"})

        async def _main():
            async with SweepService(
                None, service=ServiceConfig(shards=1),
                metrics=MetricsRegistry(),
            ) as svc:
                with pytest.raises(RuntimeError):
                    await svc.submit([bad])
                # The service survives a failed key and keeps serving.
                ok = await svc.submit(
                    [_probe_job(probe_cfg, "after", tmp_path)]
                )
                return ok, svc.stats["failed"]

        ok, failed = asyncio.run(_main())
        assert ok[0]["token"] == "after"
        assert failed == 1

    def test_supervised_failure_is_graceful(self, probe_cfg, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
        bad = SimJob(CHAOS_FN, probe_cfg, {"token": "boom", "plan": "raise"})
        good = _probe_job(probe_cfg, "good", tmp_path)
        policy = SweepSupervision(
            timeout_s=60.0, max_attempts=2, backoff_base_s=0.01
        )
        (results,), manifest = serve_requests(
            [[bad, good]],
            cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
            policy=policy,
            service=ServiceConfig(shards=2),
            metrics=MetricsRegistry(),
        )
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "exception"
        assert results[0].attempts == 2
        assert results[1]["token"] == "good"
        assert manifest["failed"] == 1
        assert manifest["completed"] == 1


    @staticmethod
    def _failing_policy():
        return SweepSupervision(
            timeout_s=60.0, max_attempts=1, backoff_base_s=0.01
        )

    def test_failure_reports_its_slot(self, probe_cfg, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
        bad = SimJob(CHAOS_FN, probe_cfg, {"token": "boom", "plan": "raise"})
        good = [_probe_job(probe_cfg, f"g{i}", tmp_path) for i in range(2)]
        (results,), manifest = serve_requests(
            [good + [bad]],
            policy=self._failing_policy(),
            metrics=MetricsRegistry(),
        )
        failure = results[2]
        assert isinstance(failure, JobFailure)
        assert failure.index == 2
        assert str(failure).startswith("JobFailure(job 2,")
        assert failure.to_dict()["index"] == 2
        assert manifest["failed"] == 1

    def test_shared_failure_carries_each_requests_slot(
        self, probe_cfg, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
        bad = SimJob(CHAOS_FN, probe_cfg, {"token": "boom", "plan": "raise"})
        good = _probe_job(probe_cfg, "good", tmp_path)
        (first, second), manifest = serve_requests(
            [[bad], [good, good, bad]],
            policy=self._failing_policy(),
            metrics=MetricsRegistry(),
        )
        # One execution of the bad key, two slots reporting it.
        assert manifest["failed"] == 1
        assert first[0].key == second[2].key
        assert first[0].index == 0
        assert second[2].index == 2


class TestLifecycle:
    def test_construction_starts_no_threads(self):
        before = threading.active_count()
        SweepService(None, metrics=MetricsRegistry())
        assert threading.active_count() == before
        assert not any(
            t.name.startswith("repro-shard") for t in threading.enumerate()
        )

    def test_submit_after_close_raises(self, probe_cfg, tmp_path):
        async def _main():
            svc = SweepService(None, metrics=MetricsRegistry())
            await svc.close()
            with pytest.raises(ServiceError):
                await svc.submit([_probe_job(probe_cfg, "late", tmp_path)])

        asyncio.run(_main())

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)
        assert ServiceConfig().replace(shards=7).shards == 7
