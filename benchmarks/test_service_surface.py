"""Benchmark: sweep-service dedup leverage and surface query answering.

Measures the service's whole value proposition: N overlapping requests
over a shared grid cost one simulation per unique point (dedup factor
printed), and a second batch over the same grid answers from the
artifact store alone — per-query latency is surface arithmetic, not
simulation.
"""

import pytest

from repro.analysis import format_table
from repro.config import ServiceConfig, small_config
from repro.metrics.registry import MetricsRegistry
from repro.runner import CapacitySurface, ResultCache, SimJob, serve_requests

FIG10_FN = "repro.runner.workloads.fig10_point"


def _grid_jobs(cfg, grid):
    return [
        SimJob(
            FIG10_FN,
            cfg,
            {
                "kind": "tpc",
                "iteration_count": n,
                "bits_per_channel": 4,
                "seed": 1021 + i,
            },
        )
        for i, n in enumerate(grid)
    ]


@pytest.mark.benchmark(group="service")
def test_service_dedup_and_surface_queries(once, tmp_path):
    cfg = small_config(timing_noise=0)
    grid = [1, 2, 4]
    jobs = _grid_jobs(cfg, grid)
    # Four overlapping requests: full grid, two rotations, a subset.
    requests = [jobs, jobs[1:] + jobs[:1], jobs[::-1], jobs[:2]]
    cache = ResultCache(tmp_path / "store", metrics=MetricsRegistry())

    def sweep():
        return serve_requests(
            requests,
            cache=cache,
            service=ServiceConfig(shards=2),
            metrics=MetricsRegistry(),
            stagger_s=0.002,
        )

    per_request, manifest = once(sweep)
    total_slots = sum(len(r) for r in requests)
    print("\nSweep service: overlapping-request dedup")
    print(format_table(
        ["metric", "value"],
        [
            ("requests", len(requests)),
            ("job slots submitted", total_slots),
            ("unique points simulated", manifest["dispatched"]),
            ("late-subscriber attaches", manifest["attached"]),
            ("store hits", manifest["cache_hit"]),
            ("dedup factor", f"{total_slots / manifest['dispatched']:.1f}x"),
        ],
    ))
    assert manifest["dispatched"] == len(grid)
    assert manifest["failed"] == 0

    # Second batch: pure store replay, zero simulation.
    (replay,), manifest2 = serve_requests(
        [jobs],
        cache=cache,
        service=ServiceConfig(shards=2),
        metrics=MetricsRegistry(),
    )
    assert manifest2["dispatched"] == 0
    assert manifest2["cache_hit"] == len(grid)

    surface = CapacitySurface.from_rows(replay, metrics=MetricsRegistry())
    queries = [1, 1.5, 2, 3, 4, 6]
    answers = [surface.predict(iterations=q) for q in queries]
    print(format_table(
        ["iterations", "bandwidth (kbps)", "source", "distance"],
        [
            (q, f"{a.bandwidth_kbps:.1f}", a.source, f"{a.distance:.2f}")
            for q, a in zip(queries, answers)
        ],
    ))
    # Bandwidth falls with iteration count across the answered range.
    bandwidths = [a.bandwidth_kbps for a in answers]
    assert bandwidths == sorted(bandwidths, reverse=True)
