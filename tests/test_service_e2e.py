"""End-to-end sweep-service tests: chaos resilience and golden agreement.

Two scenarios drive the full supervised path with real fig10 simulation
points:

* **shard killed mid-flight** — one job in the request hard-exits its
  worker process on attempt 1 (``FAULT_PLANS["transient-exit"]``); the
  supervision net retries it and the request completes with the artifact
  store holding exactly the returned result for every key.
* **acceptance: surface answers from the store alone** — a second
  service pass over an already-swept grid answers every point from the
  artifact store (``cache_hit`` equals the query count, zero
  dispatches), and the capacity surface built from those answers matches
  the golden first-pass measurements within the Welch drift margin.
"""

import pytest

from repro.config import ServiceConfig, SweepSupervision
from repro.metrics.registry import MetricsRegistry
from repro.runner import (
    CapacitySurface,
    JobFailure,
    ResultCache,
    SimJob,
    serve_requests,
)
from repro.runner.chaos import (
    CHAOS_FN,
    CHAOS_STATE_ENV,
    FAULT_PLANS,
    attempts_recorded,
)
from repro.testing.stats import welch_margin

FIG10_FN = "repro.runner.workloads.fig10_point"


def _fig10_job(cfg, iterations, seed=1021):
    return SimJob(
        FIG10_FN,
        cfg,
        {
            "kind": "tpc",
            "iteration_count": iterations,
            "bits_per_channel": 4,
            "seed": seed,
        },
    )


@pytest.fixture
def fig10_cfg(quiet_cfg):
    return quiet_cfg


@pytest.mark.slow
def test_shard_killed_mid_flight_request_still_completes(
    fig10_cfg, tmp_path, monkeypatch
):
    state_dir = tmp_path / "chaos-state"
    state_dir.mkdir()
    monkeypatch.setenv(CHAOS_STATE_ENV, str(state_dir))
    jobs = [
        _fig10_job(fig10_cfg, 1),
        _fig10_job(fig10_cfg, 2),
        # Attempt 1 hard-exits the worker process (simulating a shard
        # death), attempt 2 succeeds.
        SimJob(
            CHAOS_FN,
            fig10_cfg,
            {
                "token": "shard-kill",
                "plan": FAULT_PLANS["transient-exit"],
                "value": 7,
            },
        ),
    ]
    cache = ResultCache(tmp_path / "cache", metrics=MetricsRegistry())
    policy = SweepSupervision(
        timeout_s=120.0, max_attempts=3, backoff_base_s=0.01
    )
    (results,), manifest = serve_requests(
        [jobs],
        cache=cache,
        policy=policy,
        service=ServiceConfig(shards=2),
        metrics=MetricsRegistry(),
    )

    # Nothing failed: the killed shard's job was retried to success.
    assert not any(isinstance(r, JobFailure) for r in results)
    assert attempts_recorded(state_dir, "shard-kill") == 2
    assert results[2]["value"] == 7
    assert results[0]["iterations"] == 1
    assert results[1]["iterations"] == 2
    assert manifest["dispatched"] == 3
    assert manifest["completed"] == 3
    assert manifest["failed"] == 0

    # The artifact store holds exactly what the request returned.
    for job, result in zip(jobs, results):
        assert cache.get(job.key(cache.code_version)) == result


@pytest.mark.slow
def test_surface_answers_match_golden_without_simulation(
    fig10_cfg, tmp_path
):
    """The ISSUE acceptance check, as a test.

    Phase A sweeps a small fig10 grid through the supervised service and
    records the measured bandwidths as "golden".  Phase B replays the
    identical grid on a *fresh* service sharing only the artifact store:
    every answer must come from the store (hit count == query count,
    zero dispatches == zero simulation), and surface predictions at the
    swept points must agree with golden within the Welch drift margin.
    """
    grid = [1, 2]
    seeds = [1021, 1022]
    jobs = [
        _fig10_job(fig10_cfg, n, seed=seed) for n in grid for seed in seeds
    ]
    cache_root = tmp_path / "cache"

    # Phase A: populate the store, fold golden samples per iteration.
    (first,), manifest_a = serve_requests(
        [jobs],
        cache=ResultCache(cache_root, metrics=MetricsRegistry()),
        policy=SweepSupervision(timeout_s=120.0, max_attempts=2),
        service=ServiceConfig(shards=2),
        metrics=MetricsRegistry(),
    )
    assert not any(isinstance(r, JobFailure) for r in first)
    assert manifest_a["dispatched"] == len(jobs)
    golden = {n: [] for n in grid}
    for row in first:
        golden[row["iterations"]].append(row["bandwidth_kbps"])

    # Phase B: fresh service + registry, same store.
    registry = MetricsRegistry()
    cache = ResultCache(cache_root, metrics=registry)
    (second,), manifest_b = serve_requests(
        [jobs],
        cache=cache,
        service=ServiceConfig(shards=2),
        metrics=registry,
    )
    assert manifest_b["cache_hit"] == len(jobs)
    assert manifest_b["dispatched"] == 0  # zero simulation spawned
    assert cache.hits == len(jobs)

    surface = CapacitySurface.from_rows(second, metrics=registry)
    for n in grid:
        pred = surface.predict(iterations=n)
        assert pred.source == "exact"
        fresh = [
            row["bandwidth_kbps"] for row in second if row["iterations"] == n
        ]
        golden_mean = sum(golden[n]) / len(golden[n])
        allowance = (
            welch_margin(golden[n], fresh)
            + 0.02 * abs(golden_mean)
            + 1e-9
        )
        assert abs(pred.bandwidth_kbps - golden_mean) <= allowance
    # Cached replay is bit-identical, so the agreement is in fact exact.
    assert second == first
