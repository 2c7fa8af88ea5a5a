"""Property-based sweep-service tests: exactly-once under interleaving.

Seeded ``random`` only (no extra dependencies), following the
``test_property_accounting.py`` idiom: each seed draws a random set of
overlapping requests — shuffled samples (with repeats) from a small
token pool — and fires them concurrently at one :class:`SweepService`
with randomized shard count and submission stagger.  The invariants
checked against the workload's side-effect ledger:

1. every unique job key executes **exactly once** (one ledger line per
   token used, no matter how many requests named it);
2. every subscriber of a key receives an identical result payload;
3. the scheduler's books balance: ``dispatched`` equals the number of
   unique keys, and ``dispatched + attached + cache_hit`` equals the
   number of job slots submitted.
"""

import random

import pytest

from repro.config import ServiceConfig
from repro.metrics.registry import MetricsRegistry
from repro.runner import ResultCache, SimJob, serve_requests

PROBE_FN = "repro.runner.workloads.service_probe_point"


def _ledger_count(ledger, token):
    path = ledger / f"{token}.log"
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


@pytest.mark.parametrize("seed", range(6))
def test_overlapping_requests_execute_each_key_exactly_once(
    seed, quiet_cfg, tmp_path, inline_service
):
    rng = random.Random(0xC0FFEE + seed)
    tokens = [f"tok{i}" for i in range(rng.randint(3, 8))]
    num_requests = rng.randint(2, 5)
    requests = []
    for _ in range(num_requests):
        picks = [
            rng.choice(tokens)
            for _ in range(rng.randint(1, 2 * len(tokens)))
        ]
        rng.shuffle(picks)
        requests.append(
            [
                SimJob(
                    PROBE_FN,
                    quiet_cfg,
                    {
                        # Same token -> same params -> same job key.
                        "token": token,
                        "value": 1.0,
                        "ledger_dir": str(tmp_path / "ledger"),
                    },
                )
                for token in picks
            ]
        )

    per_request, manifest = serve_requests(
        requests,
        cache=ResultCache(tmp_path / "cache", metrics=MetricsRegistry()),
        service=ServiceConfig(shards=rng.randint(1, 4)),
        metrics=MetricsRegistry(),
        stagger_s=0.005,
    )

    used = {job.params["token"] for jobs in requests for job in jobs}
    # (1) exactly-once execution, measured by the workload's own ledger.
    for token in used:
        assert _ledger_count(tmp_path / "ledger", token) == 1, token
    for token in set(tokens) - used:
        assert _ledger_count(tmp_path / "ledger", token) == 0, token

    # (2) every subscriber of a token sees the identical payload.
    by_token = {}
    for jobs, results in zip(requests, per_request):
        assert len(results) == len(jobs)
        for job, result in zip(jobs, results):
            token = job.params["token"]
            assert result["token"] == token
            canonical = by_token.setdefault(token, result)
            assert result == canonical

    # (3) the books balance.
    total_slots = sum(len(jobs) for jobs in requests)
    assert manifest["dispatched"] == len(used)
    assert (
        manifest["dispatched"]
        + manifest["attached"]
        + manifest["cache_hit"]
        == total_slots
    )
    assert manifest["completed"] == len(used)
    assert manifest["failed"] == 0
    assert manifest["requests"] == num_requests
