#!/usr/bin/env python3
"""Parallel cached sweep: Figure 10 bandwidth/error over worker processes.

Each sweep point (an iteration count of the receiver's probe loop) is an
independent simulation, so the experiment runner fans them out over
supervised worker processes and memoises every result in an on-disk cache
keyed by (workload, config, params, seed, code version).  Re-running this
script replays the whole sweep from ``.repro_cache`` in milliseconds;
editing any simulator source invalidates the cache automatically.

Run with::

    python examples/parallel_sweep.py
"""

import time

from repro import small_config
from repro.analysis import format_table
from repro.config import SweepSupervision
from repro.runner import ResultCache, SimJob, SweepError, run_supervised


def main() -> None:
    config = small_config()
    iterations = (1, 2, 3, 4, 5)
    jobs = [
        SimJob(
            fn="repro.runner.workloads.fig10_point",
            config=config,
            params={
                "kind": "tpc",
                "iteration_count": count,
                "bits_per_channel": 8,
                "seed": 1021 + index,
            },
        )
        for index, count in enumerate(iterations)
    ]

    cache = ResultCache()
    start = time.perf_counter()
    # Each point executes in its own supervised worker process: a crash,
    # or a hang past timeout_s, is retried with backoff (up to
    # max_attempts attempts in all) instead of aborting the sweep, and
    # every completed result is checkpointed write-through as it arrives.
    outcome = run_supervised(
        jobs,
        cache=cache,
        policy=SweepSupervision(timeout_s=600.0, max_attempts=3),
        progress=lambda done, total: print(f"  {done}/{total} points done"),
    )
    if outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    rows = outcome.results
    elapsed = time.perf_counter() - start

    print(format_table(
        ["iterations", "bit rate (kbps)", "error rate"],
        [(r["iterations"], f"{r['bandwidth_kbps']:.1f}",
          f"{r['error_rate']:.3f}") for r in rows],
    ))
    print(f"{len(jobs)} points in {elapsed:.2f}s "
          f"({cache.hits} cache hits, {cache.misses} misses); "
          f"run again to replay from {cache.root}/")


if __name__ == "__main__":
    main()
