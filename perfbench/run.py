"""Repository benchmark: end-to-end host-time metrics and a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload tpc_sparse --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_sweep --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --workload gpc_dense --seconds 2 --smoke

Workloads are listed in ``BENCHMARK.json`` and explained in
``perfbench/README.md``.  Each run is a closed loop on the default
``active`` engine: operations are issued back to back for ``--seconds``
(at least one), each one checked for correctness.  Human-readable lines
(every metric with its unit and sample count) come first; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The gated times are scaled by the host speed the
run measured with a fixed reference kernel (``host_speed.py``); the raw
values are printed too.  A traced run alternates an untraced and a traced
execution of the same operation: the pair must simulate identically, and
their time ratio is the tracing overhead.  Spans are written at exit to
``.perfbench_out/trace-<workload>-seed<seed>.json`` (Chrome trace format).

Any failed operation or check makes the exit code 1.  Each run points
``REPRO_CACHE_DIR`` and ``TMPDIR`` at a fresh directory under
``.perfbench_out/`` and removes it at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = HERE / "fingerprints.json"
#: Set-up is timed in this many fresh interpreters (median reported).
SETUP_SAMPLES = {False: 5, True: 2}

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Tick layers reported with their call counts as well as their seconds.
COUNTED_TICK_LAYERS = (
    "gpu.sm", "noc.mux", "noc.crossbar", "interconnect.link",
)
#: Span name -> per-layer metric (seconds per operation).
SPAN_METRICS = {
    "gpu.device.build": "gpu.device.build_s",
    "channel.calibrate": "channel.calibrate_s",
    "channel.transmit": "channel.transmit_s",
    "runner.service.submit": "runner.service.submit_s",
    "runner.supervisor.job": "runner.supervisor.job_s",
    "runner.cache.get": "runner.cache.get_s",
    "runner.cache.put": "runner.cache.put_s",
    "runner.surface.build": "runner.surface.build_s",
    "runner.surface.predict": "runner.surface.predict_s",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes (small GPU, few bits): same code paths and "
             "checks, seconds per operation",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def probe_setup(args: argparse.Namespace) -> int:
    """Child mode: time imports plus workload set-up, print the seconds."""
    from bench_workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, tempfile.gettempdir()
    )
    workload.setup()
    print(time.perf_counter() - start)
    return 0


def time_setup(args: argparse.Namespace, env: Dict[str, str],
               speed) -> List[float]:
    """Set-up seconds measured in fresh interpreters (imports are cold)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES[args.smoke]):
        speed.sample()
        done = subprocess.run(command, env=env, cwd=str(ROOT), check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Op:
    """One executed operation and what the harness measured around it."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.seconds = 0.0
        self.result: Any = None
        self.layers: Dict[str, float] = {}


def run_op(workload, index: int, traced: bool, tracer, meter,
           speed) -> Op:
    from bench_workloads import OpResult

    op = Op(index, traced)
    if traced:
        tracer.install()
        tracer.op = index
        before = tracer.hot_snapshot()
    # Start every operation from a collected heap, so a full collection
    # of the previous operation's device graphs does not land in it.
    gc.collect()
    if not traced:
        speed.sample()
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            op.result = workload.op(index, tracer, meter)
    except Exception:  # noqa: BLE001 - a failed operation is counted
        op.result = OpResult()
        op.result.problems.append(traceback.format_exc())
    finally:
        op.seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            op.layers = layer_values(tracer, index, before)
    try:
        workload.check(op.result)
    except Exception:  # noqa: BLE001 - a failed check is counted
        op.result.problems.append(traceback.format_exc())
    return op


def layer_values(tracer, index: int, before) -> Dict[str, float]:
    """Per-layer seconds and calls of one traced operation."""
    out: Dict[str, float] = {}
    after = tracer.hot_snapshot()
    for layer, acc in after.items():
        prev = before.get(layer, (0,) * len(acc))
        out[f"{layer}.calls"] = acc[0] - prev[0]
        out[f"{layer}.s"] = acc[1] - prev[1]
        if len(acc) > 2:
            out[f"{layer}.self_s"] = acc[2] - prev[2]
    for span in tracer.op_spans(index):
        key = f"span.{span.name}"
        out[key] = out.get(key, 0.0) + (span.end - span.start)
    return out


def check_ops(workload_name: str, ops: List[Op], smoke: bool,
              seed: int) -> None:
    """Cross-operation checks; problems land on the operations."""
    if FINGERPRINTS.is_file():
        table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        entry = table.get("smoke" if smoke else "full", {}).get(workload_name)
        first = ops[0].result
        if entry is not None and entry["seed"] == seed and not first.problems:
            if first.sim != entry["sim"]:
                first.problems.append(
                    f"op 0 fingerprint {first.sim} differs from the "
                    f"recorded {entry['sim']}")
    plain = {op.index: op for op in ops if not op.traced}
    for op in ops:
        if not op.traced:
            continue
        twin = plain[op.index].result
        if op.result.sim != twin.sim or op.result.counts != twin.counts:
            op.result.problems.append(
                "traced run simulated differently from the untraced run")
        engine_ticks = op.result.counts.get("sim.engine.ticks", 0)
        wrapped = sum(v for k, v in op.layers.items()
                      if k.endswith(".calls") and k != "sim.engine.step.calls")
        if wrapped != engine_ticks:
            op.result.problems.append(
                f"tick wrappers saw {wrapped} ticks, engines executed "
                f"{engine_ticks}")


def end_to_end(ops: List[Op], setup: List[float], speed
               ) -> Tuple[Dict[str, float], List[str]]:
    """The gated metrics plus the report lines.

    Times are host wall time scaled to the nominal host (see
    ``host_speed.py``); the raw values are printed beside them.
    """
    plain = [op for op in ops if not op.traced]
    n = len(plain)
    seconds = _median([op.seconds for op in plain])
    rate = _median([op.result.cycles / op.seconds for op in plain])
    scale = speed.scale
    metrics = {
        "setup_s": _median(setup) * scale,
        "op_p50_s": seconds * scale,
        "sim_cycles_per_s": rate / scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"host speed: reference kernel mean {speed.kernel_s:.4f} s "
        f"(n={len(speed.samples)}), scale to nominal {scale:.4f}",
        f"setup_s = {metrics['setup_s']:.4f} s (median of n={len(setup)} "
        f"fresh interpreters; raw {_median(setup):.4f} s)",
        f"op_p50_s = {metrics['op_p50_s']:.4f} s (n={n} operations; "
        f"raw {seconds:.4f} s)",
        f"sim_cycles_per_s = {metrics['sim_cycles_per_s']:.1f} 1/s "
        f"(median of n={n} operations, every device run counted; "
        f"raw {rate:.1f} 1/s)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
    ]
    timed = [op.result.timings for op in plain if op.result.timings]
    if timed:
        cold = [t["cold_request_s"] for t in timed]
        warm = [t["warm_request_s"] for t in timed]
        queries = [q for t in timed for q in t["query_s"]]
        points = plain[0].result.counts.get("runner.service.dispatched", 0)
        lines += [
            f"cold_request_s = {_median(cold):.4f} s raw (n={len(cold)})",
            f"warm_request_s = {_median(warm):.6f} s (n={len(warm)})",
            f"points_per_s = {points / _median(cold):.3f} 1/s raw "
            f"({points} unique points per cold pair, n={len(cold)})",
            f"query_p50_us = {_median(queries) * 1e6:.2f} us raw "
            f"(n={len(queries)} queries)",
            f"query_p99_us = {_percentile(queries, 0.99) * 1e6:.2f} us raw "
            f"(n={len(queries)} queries)",
        ]
    return metrics, lines


def per_layer(workload, ops: List[Op]) -> Tuple[Dict[str, Any], List[str]]:
    """Per-layer metrics of the traced operations, plus report lines.

    Seconds are per operation (summed over a layer's calls; concurrent
    calls add up), median over the traced operations.  Counts and
    ratios are those of traced operation 0, which repeat exactly for a
    given seed.
    """
    from bench_trace import TICK_LAYERS

    traced = [op for op in ops if op.traced]
    plain = {op.index: op for op in ops if not op.traced}
    first = traced[0]
    counts = first.result.counts
    timed = f"median of n={len(traced)} traced operations"
    exact = "traced operation 0"
    metrics: Dict[str, Tuple[float, str, str]] = {}

    def seconds(name: str, key: str) -> None:
        value = _median([op.layers.get(key, 0.0) for op in traced])
        metrics[name] = (value, "s", timed)

    def count(name: str, value: float, unit: str = "count") -> None:
        metrics[name] = (value, unit, exact)

    def ratio(name: str, num: float, den: float) -> None:
        count(name, num / den if den else 0.0, "ratio")

    cycles = counts.get("sim.engine.cycles", 0)
    ff = counts.get("sim.engine.ff_cycles", 0)
    ticks = counts.get("sim.engine.ticks", 0)
    seconds("sim.engine.self_s", "sim.engine.step.self_s")
    count("sim.engine.ticks", ticks)
    ratio("sim.engine.ff_frac", ff, cycles)
    ratio("sim.engine.ticks_per_busy_cycle", ticks, cycles - ff)
    for layer in TICK_LAYERS.values():
        seconds(f"{layer}.tick_s", f"{layer}.s")
        if layer in COUNTED_TICK_LAYERS:
            count(f"{layer}.ticks", first.layers.get(f"{layer}.calls", 0))
    for span, name in SPAN_METRICS.items():
        seconds(name, f"span.{span}")
    jobs = counts.get("runner.service.jobs", 0)
    count("runner.service.jobs", jobs)
    ratio("runner.service.dedup_ratio",
          counts.get("runner.service.attached", 0)
          + counts.get("runner.service.cache_hit", 0), jobs)
    execute_s = getattr(workload, "execute_s", None)
    metrics["runner.supervisor.overhead_s"] = (
        metrics["runner.supervisor.job_s"][0] - execute_s
        if execute_s is not None else 0.0, "s",
        "supervised job seconds minus in-process execute of the same jobs")
    hits = counts.get("runner.cache.hits", 0)
    ratio("runner.cache.hit_ratio", hits,
          hits + counts.get("runner.cache.misses", 0))
    count("runner.cache.puts", counts.get("runner.cache.puts", 0))
    metrics["trace.overhead_frac"] = (_median([
        op.seconds / plain[op.index].seconds - 1.0 for op in traced]),
        "ratio", f"traced over untraced time, median of n={len(traced)} "
                 f"pairs of the same operation")
    lines = [f"{name} = {value} {unit} ({how})"
             for name, (value, unit, how) in metrics.items()]
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit, _) in metrics.items()}, lines)


def self_time_table(tracer) -> List[str]:
    """Self seconds per span name, summed over all traced operations."""
    totals: Dict[str, List[float]] = {}
    selfs = tracer.self_times(tracer.spans)
    for span in tracer.spans:
        row = totals.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += selfs[span.sid]
    return [f"  span {name}: calls={int(c)} total_s={t:.4f} self_s={s:.4f}"
            for name, (c, t, s) in sorted(totals.items())]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_setup(args)

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=str(OUT)))
    scratch = run_dir / "tmp"
    scratch.mkdir()
    # Isolation: a fresh artifact store and temp dir per run, so no
    # earlier run can turn a cold request warm.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["TMPDIR"] = str(scratch)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    tempfile.tempdir = None
    try:
        return measure(args, WORKLOADS[args.workload], str(scratch))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args: argparse.Namespace, workload_cls, scratch: str) -> int:
    from bench_trace import EngineMeter, Tracer
    from host_speed import HostSpeed

    speed = HostSpeed()
    # Set-up time is an end-to-end metric; the traced run does not need it.
    setup = [] if args.trace else time_setup(args, dict(os.environ), speed)
    workload = workload_cls(args.seed, args.smoke, scratch)
    workload.setup()
    meter = EngineMeter()
    tracer = Tracer()
    meter.install()
    ops: List[Op] = []
    try:
        workload.prepare(meter)
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            ops.append(run_op(workload, index, False, tracer, meter, speed))
            if args.trace:
                ops.append(run_op(workload, index, True, tracer, meter,
                                  speed))
            index += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        meter.uninstall()
    check_ops(args.workload, ops, args.smoke, args.seed)

    failed = [op for op in ops if op.result.problems]
    print(f"workload={args.workload} seed={args.seed} smoke={args.smoke} "
          f"trace={args.trace} operations={len(ops)} failed={len(failed)} "
          f"failed_frac={len(failed) / len(ops):.4f}")
    print(f"fingerprint op 0: {json.dumps(ops[0].result.sim, sort_keys=True)}")
    print("operation seconds: " + " ".join(
        f"{op.index}{'t' if op.traced else ''}={op.seconds:.3f}" for op in ops))
    for op in failed:
        for problem in op.result.problems:
            print(f"FAILED op {op.index} (traced={op.traced}): {problem}",
                  file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(workload, ops)
        lines += self_time_table(tracer)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(str(path), {
            "workload": args.workload,
            "seed": args.seed,
            "ops": [{"op": op.index, "seconds": op.seconds,
                     "layers": op.layers} for op in ops if op.traced],
        })
        lines.append(f"chrome trace: {path.relative_to(ROOT)}")
    else:
        values, lines = end_to_end(ops, setup, speed)
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
