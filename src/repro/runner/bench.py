"""Engine-scheduling microbenchmark: naive vs active strategies.

Times identical seeded workloads under ``engine_strategy="naive"`` (tick
every component every cycle) and ``"active"`` (event-driven active-set
scheduling with idle fast-forward, sparse NoC ticks and backpressure
parking), checks that the measured channel results are bit-identical
across both strategies, and emits ``BENCH_engine.json``::

    python -m repro bench                 # full-Volta scale by default
    python -m repro bench --scale small

Two representative workloads are measured:

* ``tpc_channel`` — a calibrate-plus-transmit TPC covert-channel run
  (the paper's core experiment; dense contention phases).
* ``fig9_sync`` — the Figure 9 synchronised latency trace, whose idle
  guard slots between symbols are where fast-forward pays off most.

Below the Table-1 V100 scale the report also carries a ``"full_volta"``
block (active-strategy throughput pinned at that scale; at it,
``workloads.tpc_channel`` already is that figure).  It always carries a
``"telemetry"`` section (tracing overhead) and a ``"metrics"`` section
(sampled engine self-profiling overhead; <2% budget), both measured
against one shared off baseline, and a ``"supervision"`` section
(fault-tolerant runner overhead on a clean sweep, serial in-process
execution vs per-job supervision; must stay <5%).

Every bench run also appends a trajectory record to
``BENCH_history.jsonl`` (see :mod:`repro.metrics.history`); ``python -m
repro bench --check-history`` compares the run against the trailing
median for the same config and host and fails on a >20% throughput
regression.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..config import GpuConfig, VOLTA_V100

#: Default output file name.
BENCH_OUTPUT = "BENCH_engine.json"


def _tpc_channel(config: GpuConfig, num_bits: int) -> Tuple[int, Any]:
    from ..channel.tpc_channel import TpcCovertChannel

    channel = TpcCovertChannel(config)
    channel.calibrate()
    bits = [i % 2 for i in range(num_bits)]
    result = channel.transmit(bits)
    return result.cycles, (result.received_symbols, result.measurements)


def _fig9_sync(config: GpuConfig, num_bits: int) -> Tuple[int, Any]:
    from ..channel.protocol import ChannelParams
    from ..channel.tpc_channel import TpcCovertChannel

    # Same parameters as fig9_latency_trace(with_sync=True); run through
    # the channel directly so the simulated cycle count is reportable.
    params = ChannelParams().with_(sync_period=8, slot_cycles=0,
                                   threshold=1.0)
    channel = TpcCovertChannel(config, params=params)
    bits = [slot % 2 for slot in range(num_bits)]
    result = channel.transmit(bits)
    return result.cycles, (bits, result.measurements)


_WORKLOADS: Dict[str, Callable[[GpuConfig, int], Tuple[int, Any]]] = {
    "tpc_channel": _tpc_channel,
    "fig9_sync": _fig9_sync,
}


def _time_strategy(
    workload: Callable[[GpuConfig, int], Tuple[int, Any]],
    config: GpuConfig,
    strategy: str,
    num_bits: int,
) -> Tuple[float, int, Any]:
    run_config = config.replace(engine_strategy=strategy)
    start = time.perf_counter()
    cycles, fingerprint = workload(run_config, num_bits)
    elapsed = time.perf_counter() - start
    return elapsed, cycles, fingerprint


def _bench_observability(
    config: GpuConfig, num_bits: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure the telemetry and metrics planes' overhead on the channel.

    Runs the TPC channel (active strategy) once with both planes off and
    once with each plane on, asserts each enabled run is bit-identical
    to the shared off baseline — observability must never perturb the
    model, and the engine profiler only *reads* scheduler state — and
    returns the ``(telemetry, metrics)`` sections with each plane's
    wall-clock overhead.  The metrics budget is <2% (``budget_frac``);
    the measured ``overhead_frac`` is recorded for the history trail
    rather than hard-asserted, since sub-second wall clocks are noisy on
    shared CI hosts.
    """
    base = config.replace(telemetry_enabled=False, metrics_enabled=False)
    off_s, off_cycles, off_fp = _time_strategy(
        _tpc_channel, base, "active", num_bits
    )

    def enabled_leg(plane: str, **flags: bool) -> Dict[str, Any]:
        on_s, on_cycles, on_fp = _time_strategy(
            _tpc_channel, base.replace(**flags), "active", num_bits
        )
        assert off_fp == on_fp, (
            f"{plane}-enabled run diverged from the {plane}-off baseline"
        )
        assert off_cycles == on_cycles, (
            f"cycle counts diverged with {plane} on "
            f"({off_cycles} vs {on_cycles})"
        )
        overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
        return {
            "workload": "tpc_channel",
            "disabled_wall_s": round(off_s, 4),
            "enabled_wall_s": round(on_s, 4),
            "overhead_frac": round(overhead, 4),
            "identical": True,
            "cycles": off_cycles,
        }

    telemetry = enabled_leg("telemetry", telemetry_enabled=True)
    metrics = enabled_leg("metrics", metrics_enabled=True)
    metrics.update(strategy="active", budget_frac=0.02)
    return telemetry, metrics


def _bench_supervision(config: GpuConfig, num_bits: int) -> Dict[str, Any]:
    """Measure the supervised runner's overhead on a fault-free sweep.

    Runs the same 4-job channel sweep serially in-process
    (:func:`~repro.runner.runner.execute`) and through one supervised
    worker slot (timeouts + retry machinery armed, no faults injected),
    asserts the results are bit-identical, and reports the wall-clock
    overhead — the price of a worker process per job when nothing
    crashes.  The acceptance bar is <5% on fault-free runs.
    """
    from ..config import SweepSupervision
    from .runner import SimJob, execute
    from .supervisor import run_supervised

    jobs = [
        SimJob(
            fn="repro.runner.workloads.channel_run",
            config=config,
            params={"kind": "tpc", "num_bits": num_bits, "seed": 7 + i},
        )
        for i in range(4)
    ]
    start = time.perf_counter()
    inline = [execute(job) for job in jobs]
    inline_s = time.perf_counter() - start
    start = time.perf_counter()
    outcome = run_supervised(
        jobs, workers=1,
        policy=SweepSupervision(timeout_s=600.0, max_attempts=3),
    )
    supervised_s = time.perf_counter() - start
    assert not outcome.failures, (
        "supervised fault-free sweep reported failures"
    )
    assert outcome.results == inline, (
        "supervised sweep diverged from in-process execution"
    )
    overhead = (
        (supervised_s - inline_s) / inline_s if inline_s > 0 else 0.0
    )
    return {
        "workload": "channel_run x4",
        "jobs": len(jobs),
        "inline_wall_s": round(inline_s, 4),
        "supervised_wall_s": round(supervised_s, 4),
        "overhead_frac": round(overhead, 4),
        "identical": True,
    }


def _bench_full_volta(num_bits: int) -> Dict[str, Any]:
    """Pin the active strategy's throughput at the Table-1 V100 scale."""
    active_s, cycles, _ = _time_strategy(
        _tpc_channel, VOLTA_V100, "active", num_bits
    )
    return {
        "num_sms": VOLTA_V100.num_sms,
        "num_l2_slices": VOLTA_V100.num_l2_slices,
        "workload": "tpc_channel",
        "num_bits": num_bits,
        "cycles": cycles,
        "active_wall_s": round(active_s, 4),
        "active_cycles_per_s": round(cycles / active_s, 1),
    }


def bench_engine(
    config: GpuConfig,
    num_bits: int = 24,
    workloads: Optional[Tuple[str, ...]] = None,
    output: Union[str, Path, None] = BENCH_OUTPUT,
    on_phase: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Benchmark naive vs active; optionally write a JSON report.

    Returns the report dict.  Raises ``AssertionError`` if any workload
    produces different results under the two strategies — the active
    engine is only an optimisation if it is cycle-exact.  ``on_phase``
    (when given) is called with a short label as each timed leg starts —
    the CLI's ``--progress`` renderer hangs off it.
    """
    names = workloads or tuple(_WORKLOADS)

    def phase(label: str) -> None:
        if on_phase is not None:
            on_phase(label)
    report: Dict[str, Any] = {
        "scales": {
            "num_sms": config.num_sms,
            "num_l2_slices": config.num_l2_slices,
        },
        "num_bits": num_bits,
        "workloads": {},
    }
    speedups = []
    for name in names:
        workload = _WORKLOADS[name]
        phase(f"{name}:naive")
        naive_s, cycles, naive_fp = _time_strategy(
            workload, config, "naive", num_bits
        )
        phase(f"{name}:active")
        active_s, active_cycles, active_fp = _time_strategy(
            workload, config, "active", num_bits
        )
        assert naive_fp == active_fp, (
            f"{name}: active-set engine diverged from naive baseline"
        )
        assert cycles == active_cycles, (
            f"{name}: cycle counts diverged ({cycles} vs {active_cycles})"
        )
        speedup = naive_s / active_s if active_s > 0 else float("inf")
        speedups.append(speedup)
        entry: Dict[str, Any] = {
            "naive_wall_s": round(naive_s, 4),
            "active_wall_s": round(active_s, 4),
            "speedup": round(speedup, 3),
            "identical": True,
        }
        if cycles:
            entry["cycles"] = cycles
            entry["naive_cycles_per_s"] = round(cycles / naive_s, 1)
            entry["active_cycles_per_s"] = round(cycles / active_s, 1)
        report["workloads"][name] = entry
    report["min_speedup"] = round(min(speedups), 3)
    at_volta = (
        config.num_sms == VOLTA_V100.num_sms
        and config.num_l2_slices == VOLTA_V100.num_l2_slices
    )
    if not at_volta:
        phase("full_volta")
        report["full_volta"] = _bench_full_volta(num_bits)
    phase("telemetry+metrics")
    report["telemetry"], report["metrics"] = _bench_observability(
        config, num_bits
    )
    phase("supervision")
    report["supervision"] = _bench_supervision(config, num_bits)
    if output is not None:
        path = Path(output)
        path.write_text(json.dumps(report, indent=2) + "\n",
                        encoding="utf-8")
        report["output"] = str(path)
    return report
