"""Command-line interface: ``python -m repro <experiment> [options]``.

Gives downstream users a zero-code way to run the paper's experiments::

    python -m repro info                    # show the GPU configuration
    python -m repro transmit --message hi   # covert-channel quickstart
    python -m repro fig2                    # TPC discovery sweep
    python -m repro fig5                    # read/write contention
    python -m repro fig6                    # clock survey
    python -m repro fig10 --panel tpc       # bandwidth vs iterations
    python -m repro linkchan                # inter-GPU NVLink channel
    python -m repro fig15                   # arbitration countermeasures
    python -m repro table2                  # measured channel summary
    python -m repro bench                   # engine strategy benchmark
    python -m repro metrics --merge m.json  # fold and render manifests
    python -m repro trace --figure fig5     # Perfetto trace of a run
    python -m repro fuzz --quick            # randomized integrity fuzzing
    python -m repro chaos --quick           # fault-injection sweep drill
    python -m repro golden check            # golden-metric regression gate

``--scale {small,medium,volta}`` selects the simulated GPU (default
small: fastest; volta is the full Table-1 V100 and can take minutes).
``--validate`` runs any experiment with the conservation-invariant
checker attached (``repro.validate``); the run aborts with a structured
violation naming the cycle and component on the first inconsistency.

Sweep commands (``fig10``, ``table2``, ``linkchan``) fan their
independent points over supervised worker processes (``--workers``,
``repro.runner.supervisor``) and reuse cached results from
``.repro_cache`` (disable with ``--no-cache``).  Hung workers are killed
after ``--timeout`` seconds and failed jobs retried ``--retries`` times;
crashes become structured failure records (``--keep-going`` finishes
the sweep despite them).  Completed points are written through to the
store as they finish, so after a crash or Ctrl-C the same command
resumes: finished points come back from the store and only the rest
execute.  ``--progress`` renders a live single-line status (done/total,
cache hits, retries, per-worker elapsed) on stderr.

Every sweep (``serve`` too) writes its metrics manifest with
``--metrics FILE``: supervision and store counters plus the engine
self-profiles of the points it ran fresh (the option turns on
``metrics_enabled``, so profiled points key separately in the store).
``python -m repro metrics --merge FILE...`` folds manifests and prints
their Prometheus exposition; ``python -m repro bench`` appends every run
to ``BENCH_history.jsonl`` and ``--check-history`` turns a >20%
throughput drop versus the trailing median into exit code 3.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .analysis.tables import format_series, format_table
from .config import (
    GpuConfig,
    PASCAL_P100,
    ServiceConfig,
    TURING_TU104,
    VOLTA_V100,
    medium_config,
    small_config,
)

SCALES = {
    "small": small_config,
    "medium": medium_config,
    "volta": lambda: VOLTA_V100,
    "pascal": lambda: PASCAL_P100,
    "turing": lambda: TURING_TU104,
}

#: Per-command default for ``--scale`` when the user does not pass one.
#: ``bench`` defaults to the full Table-1 Volta, where one covert channel
#: keeps only a handful of the 212 components live per busy cycle.
DEFAULT_SCALE = "small"
COMMAND_SCALES = {"bench": "volta"}


def _at_least(kind, low, strict=False):
    """Argparse ``type``: a ``kind`` number ``>= low`` (``> low`` if strict)."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            bound = "greater than" if strict else "at least"
            raise argparse.ArgumentTypeError(
                f"must be {bound} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


_POSITIVE_INT = _at_least(int, 1)
_POSITIVE_FLOAT = _at_least(float, 0.0, strict=True)


def _write_json(path, payload, stream=None) -> None:
    """Write ``payload`` as indented, key-sorted JSON and say so on
    ``stream`` (stdout by default)."""
    import json as _json

    with open(path, "w", encoding="utf-8") as handle:
        _json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {path}", file=stream)


def _config(args) -> GpuConfig:
    config = SCALES[args.scale]()
    if getattr(args, "validate", False):
        config = config.replace(validate_enabled=True)
    if getattr(args, "metrics", None):
        # A sweep's ``--metrics FILE``: profile every job.  The flag is
        # part of the config, so profiled points key separately.
        config = config.replace(metrics_enabled=True)
    return config


def cmd_info(args) -> int:
    config = _config(args)
    rows = [
        ("core clock", f"{config.core_clock_mhz} MHz"),
        ("GPCs", config.num_gpcs),
        ("TPCs", config.num_tpcs),
        ("SMs", config.num_sms),
        ("L2 slices", f"{config.num_l2_slices} x "
                      f"{config.l2_slice_bytes // 1024} KB"),
        ("memory controllers", config.num_memory_controllers),
        ("TPC channel width", f"{config.tpc_channel_width} flit/cycle"),
        ("GPC channel width", f"{config.gpc_channel_width} flits/cycle"),
        ("GPC reply width", f"{config.gpc_reply_width} flits/cycle"),
        ("arbitration", config.arbitration.upper()),
    ]
    print(format_table(["parameter", "value"], rows))
    members = config.gpc_members()
    for gpc, tpcs in members.items():
        print(f"GPC {gpc}: TPCs {tpcs}")
    return 0


def cmd_transmit(args) -> int:
    from .channel import TpcCovertChannel

    config = _config(args)
    channel = (
        TpcCovertChannel.all_channels(config)
        if args.all_tpcs
        else TpcCovertChannel(config)
    )
    channel.calibrate()
    message = args.message.encode()
    result = channel.transmit_bytes(message)
    value = 0
    for bit in result.received_symbols:
        value = (value << 1) | bit
    recovered = value.to_bytes(len(message), "big")
    print(f"sent      : {message!r}")
    print(f"recovered : {recovered!r}")
    print(result.summary())
    return 0 if result.error_rate < 0.1 else 1


def cmd_fig2(args) -> int:
    from .reveng import sweep_tpc_pairing

    config = _config(args)
    sweep = sweep_tpc_pairing(config, ops=args.ops)
    normalized = sweep.normalized()
    xs = sorted(normalized)
    print(format_series(
        xs, [normalized[x] for x in xs], "SM id", "normalized SM0 time"
    ))
    print(f"TPC sibling(s) of SM0: {sweep.partner_of_sm0()}")
    return 0


def cmd_fig5(args) -> int:
    from .reveng import rw_contention_profile

    config = _config(args)
    profile = rw_contention_profile(config, ops=args.ops)
    print("TPC channel (2 SMs):")
    print(format_table(
        ["access", "normalized time"], list(profile.tpc.items())
    ))
    print("\nGPC channel:")
    rows = [
        (n + 1, profile.gpc["write"][n], profile.gpc["read"][n])
        for n in range(len(profile.gpc["write"]))
    ]
    print(format_table(["active TPCs", "write", "read"], rows))
    return 0


def cmd_fig6(args) -> int:
    from .reveng import survey_clocks

    config = _config(args)
    survey = survey_clocks(config)
    print(format_series(
        sorted(survey.values),
        [survey.values[sm] for sm in sorted(survey.values)],
        "SM id", "clock()",
    ))
    print(f"max intra-TPC skew: {max(survey.tpc_skews())}")
    print(f"max intra-GPC skew: {max(survey.gpc_skews())}")
    return 0


def _sweep_cache(args, registry):
    from .runner import ResultCache

    return None if args.no_cache else ResultCache(metrics=registry)


def _metrics_registry(args):
    """The sweep's own registry when ``--metrics`` was given, else None."""
    if not args.metrics:
        return None
    from .metrics import MetricsRegistry

    return MetricsRegistry()


def _progress_renderer(args, name, total):
    """A live ``SweepProgress`` renderer when ``--progress`` was given."""
    if not args.progress:
        return None
    from .metrics import SweepProgress

    return SweepProgress(name, total=total)


def _sweep_policy(args):
    """The sweep's supervision policy: env defaults, then the flags."""
    from .config import SweepSupervision

    policy = SweepSupervision.from_env()
    if args.timeout is not None:
        policy = policy.replace(timeout_s=args.timeout)
    if args.retries is not None:
        policy = policy.replace(max_attempts=args.retries + 1)
    return policy


def _run_sweep(args, jobs, name):
    """Run a CLI sweep under supervision, resumable from the store.

    Returns ``(rows, failures)``: rows in job order with failed slots
    removed, failures as structured ``JobFailure`` records.  Completed
    points are written through to the result store, so rerunning an
    interrupted sweep answers them from it and executes only the rest
    (``--no-cache`` recomputes every point).  ``--progress`` attaches a
    live single-line renderer to the supervisor's event stream, and
    ``--metrics`` writes the sweep's metrics manifest — the store's
    counters plus the supervisor's, engine profiles of the points run
    fresh included.
    """
    from .runner import JobFailure, SweepError, run_supervised

    registry = _metrics_registry(args)
    renderer = _progress_renderer(args, name, len(jobs))
    try:
        outcome = run_supervised(
            jobs, workers=args.workers,
            cache=_sweep_cache(args, registry),
            policy=_sweep_policy(args),
            progress=renderer.progress if renderer else None,
            on_event=renderer.on_event if renderer else None,
        )
    finally:
        if renderer is not None:
            renderer.close()
    counters = outcome.counters
    hits = counters.get("cache_hits", 0)
    if hits:
        print(f"{hits} of {len(jobs)} point(s) answered from the store")
    if counters.get("retries") or counters.get("quarantined"):
        print(
            f"supervision: {counters.get('attempts', 0)} attempt(s), "
            f"{counters.get('retries', 0)} retried, "
            f"{counters.get('quarantined', 0)} cache entr(ies) quarantined"
        )
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if registry is not None:
        registry.merge_manifest(outcome.metrics)
        _write_json(args.metrics, registry.to_manifest())
    if outcome.failures and not args.keep_going:
        raise SweepError(outcome.failures, outcome.results)
    rows = [r for r in outcome.results if not isinstance(r, JobFailure)]
    return rows, outcome.failures


def _fig10_jobs(args) -> list:
    """One ``fig10_point`` job per ``--iterations`` count.

    ``fig10`` and ``serve`` both build their grid here, so the same grid
    keys the same artifact-store entries from either command.
    """
    from .runner import SimJob

    config = _config(args)
    return [
        SimJob(
            fn="repro.runner.workloads.fig10_point",
            config=config,
            params={
                "kind": args.panel,
                "iteration_count": count,
                "bits_per_channel": args.bits,
                "seed": 1021 + index,
            },
        )
        for index, count in enumerate(args.iterations)
    ]


def cmd_fig10(args) -> int:
    jobs = _fig10_jobs(args)
    rows, failures = _run_sweep(args, jobs, f"fig10-{args.scale}")
    print(format_table(
        ["iterations", "bit rate (kbps)", "error rate"],
        [(r["iterations"], r["bandwidth_kbps"], r["error_rate"])
         for r in rows],
    ))
    _print_sweep_latency(rows)
    return 1 if failures else 0


def _print_sweep_latency(rows) -> None:
    """One-line sweep-wide L2 round-trip summary from job telemetry."""
    from .runner import merge_telemetry

    merged = merge_telemetry(rows)
    if merged is None:
        return
    latency = merged["read_latency"]
    if not latency["count"]:
        return
    print(
        f"L2 round-trip over {merged['devices']} devices: "
        f"mean {latency['mean']:.1f} cycles "
        f"(min {latency['min']:.0f}, max {latency['max']:.0f}, "
        f"n={latency['count']})"
    )


def cmd_linkchan(args) -> int:
    """NVLink-channel sweep over a multi-GPU fabric (fig10-style)."""
    from .runner import SimJob

    config = _config(args)
    jobs = [
        SimJob(
            fn="repro.runner.workloads.link_channel_point",
            config=config,
            params={
                "iteration_count": count,
                "bits": args.bits,
                "seed": 4021 + index,
                "num_devices": args.devices,
                "topology": args.topology,
                "link_width": args.link_width,
                "link_latency": args.link_latency,
            },
        )
        for index, count in enumerate(args.iterations)
    ]
    rows, failures = _run_sweep(args, jobs, f"linkchan-{args.scale}")
    print(format_table(
        ["iterations", "bit rate (kbps)", "error rate"],
        [(r["iterations"], r["bandwidth_kbps"], r["error_rate"])
         for r in rows],
    ))
    _print_sweep_latency(rows)
    return 1 if failures else 0


def _serve_queries(path: Optional[str], grid: List[int]) -> List[dict]:
    """Load ``serve --queries`` as ``{"iterations": x, ...}`` mappings.

    Each entry must be a finite number or an object with a finite
    numeric ``"iterations"``; anything else (``NaN`` and ``Infinity``
    included) raises ``ValueError`` naming it.  Without a file the
    queries are the swept grid itself.
    """
    import json as _json
    import math

    if path is None:
        return [{"iterations": float(count)} for count in grid]
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw_queries = _json.load(handle)
        except ValueError as exc:
            raise ValueError(f"--queries is not valid JSON: {exc}") from None
    if not isinstance(raw_queries, list):
        raise ValueError("--queries must be a JSON list")

    def numeric(value) -> bool:
        return (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
        )

    queries = []
    for index, raw in enumerate(raw_queries):
        if numeric(raw):
            queries.append({"iterations": raw})
        elif isinstance(raw, dict) and numeric(raw.get("iterations")):
            queries.append(raw)
        else:
            raise ValueError(
                f"--queries entry {index} ({_json.dumps(raw)}) must be a "
                f"finite number or an object with a finite numeric "
                f"\"iterations\""
            )
    return queries


def cmd_serve(args) -> int:
    """Batch capacity-query service: sweep, build surface, answer queries.

    The fig10-style grid is submitted as one request through the async
    sweep service (content-hash dedup + supervised shards + shared
    artifact store), a capacity surface is built from the completed
    points, and every query in ``--queries`` (default: the grid itself)
    is answered from the surface — no re-simulation for already-swept
    points.  The queries are validated before anything runs.  Answers
    plus service/cache counters land in the ``--answers`` JSON manifest,
    which is what the CI ``service-smoke`` job asserts on; ``--metrics``
    writes the service, store and shard-supervision counter families and
    the engine profiles of the points swept fresh.
    """
    from .runner import (
        CapacitySurface,
        JobFailure,
        ResultCache,
        serve_requests,
    )

    try:
        queries = _serve_queries(args.queries, args.iterations)
    except (OSError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    registry = _metrics_registry(args)
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            max_entries=args.cache_entries, max_bytes=args.cache_bytes,
            metrics=registry,
        )
    results, service_manifest = serve_requests(
        [_fig10_jobs(args)], cache=cache, policy=_sweep_policy(args),
        service=ServiceConfig(shards=args.shards), metrics=registry,
    )
    if registry is not None:
        _write_json(args.metrics, registry.to_manifest())
    rows = [r for r in results[0] if not isinstance(r, JobFailure)]
    failures = [r for r in results[0] if isinstance(r, JobFailure)]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not rows:
        print("serve: every sweep point failed; no surface", file=sys.stderr)
        return 1

    surface = CapacitySurface.from_rows(rows)
    answers = [
        {"query": params,
         **surface.predict(params, max_age_s=args.max_age).to_dict()}
        for params in queries
    ]
    print(format_table(
        ["iterations", "bandwidth (kbps)", "error", "source"],
        [
            (
                answer["query"]["iterations"],
                f"{answer['bandwidth_kbps']:.2f}",
                f"{answer['error_rate']:.3f}",
                answer["source"],
            )
            for answer in answers
        ],
    ))
    manifest = {
        "scale": args.scale,
        "panel": args.panel,
        "bits": args.bits,
        "grid": [float(count) for count in args.iterations],
        "surface": {
            "points": len(surface),
            "axes": list(surface.axes),
            "version": surface.version,
        },
        "service": service_manifest,
        "answers": answers,
        "failures": [failure.to_dict() for failure in failures],
    }
    if args.answers:
        _write_json(args.answers, manifest)
    return 1 if failures else 0


def cmd_fig15(args) -> int:
    from .defense import arbitration_leakage_sweep

    config = _config(args).replace(timing_noise=0)
    sweep = arbitration_leakage_sweep(
        config, fractions=(0.0, 0.25, 0.5, 0.75, 1.0), ops=args.ops
    )
    rows = [
        [f"{fraction:.2f}"]
        + [f"{sweep.series[p][i]:.2f}" for p in ("rr", "crr", "srr")]
        for i, fraction in enumerate(sweep.fractions)
    ]
    print(format_table(["SM1 fraction", "RR", "CRR", "SRR"], rows))
    for policy in ("rr", "crr", "srr"):
        print(f"{policy.upper():4s} slope: {sweep.slope(policy):+.3f}")
    return 0


def cmd_table2(args) -> int:
    from .runner import SimJob

    config = _config(args)
    kinds = ("tpc", "multi-tpc", "gpc", "multi-gpc")
    jobs = [
        SimJob(
            fn="repro.runner.workloads.table2_point",
            config=config,
            params={
                "kind": kind,
                "bits_per_channel": args.bits,
                "seed": 2021 + index,
            },
        )
        for index, kind in enumerate(kinds)
    ]
    rows, failures = _run_sweep(args, jobs, f"table2-{args.scale}")
    print(format_table(
        ["channel", "error rate", "bandwidth (Mbps)"],
        [(r["channel"], r["error_rate"], r["bandwidth_mbps"])
         for r in rows],
    ))
    _print_sweep_latency(rows)
    return 1 if failures else 0


def _bench_history(args, report, append: bool = True) -> int:
    """Check the report against BENCH_history.jsonl, then append it.

    The check runs *before* the append so the baseline never includes
    the run under test.  Prints the advisory result; returns 3 when
    ``--check-history`` was given and a throughput fell more than the
    threshold below its trailing median, 0 otherwise.  ``append=False``
    only checks (a re-checked report already appended itself).
    """
    from .metrics.history import (
        HISTORY_FILE,
        append_history,
        bench_record,
        check_history,
    )

    path = args.history_file or HISTORY_FILE
    check = check_history(report, path=path, scale=args.scale)
    if append:
        append_history(bench_record(report, scale=args.scale), path=path)
    for line in check.lines():
        print(line)
    return 3 if args.check_history and not check.ok else 0


def cmd_bench(args) -> int:
    import json as _json

    from .runner import bench_engine

    if args.from_report:
        # Re-check an existing report against the history without
        # re-benchmarking (the CI warn-only step).
        with open(args.from_report, "r", encoding="utf-8") as handle:
            return _bench_history(args, _json.load(handle), append=False)

    on_phase = None
    if args.progress:
        def on_phase(label: str) -> None:
            print(f"bench: {label}", file=sys.stderr, flush=True)

    config = _config(args)
    report = bench_engine(
        config, num_bits=args.bits,
        output=None if args.no_output else args.output,
        on_phase=on_phase,
    )
    for name, entry in report["workloads"].items():
        print(
            f"{name:12s} naive {entry['naive_wall_s']:7.3f}s  "
            f"active {entry['active_wall_s']:7.3f}s  "
            f"speedup {entry['speedup']:.2f}x"
        )
    print(f"min speedup: {report['min_speedup']:.2f}x")
    # Below Volta scale the report pins a separate full-Volta run; at
    # it, the tpc_channel workload already is that run.
    volta = report.get("full_volta") or report["workloads"]["tpc_channel"]
    print(
        f"active @ full Volta: "
        f"{volta['active_cycles_per_s']:,.0f} cycles/s"
    )
    telemetry = report["telemetry"]
    print(
        f"telemetry    off {telemetry['disabled_wall_s']:7.3f}s  "
        f"on     {telemetry['enabled_wall_s']:7.3f}s  "
        f"overhead {telemetry['overhead_frac'] * 100:+.1f}%"
    )
    metrics = report.get("metrics")
    if metrics:
        print(
            f"metrics      off {metrics['disabled_wall_s']:7.3f}s  "
            f"on     {metrics['enabled_wall_s']:7.3f}s  "
            f"overhead {metrics['overhead_frac'] * 100:+.1f}% "
            f"({metrics['strategy']}, budget "
            f"{metrics['budget_frac'] * 100:.0f}%)"
        )
    supervision = report.get("supervision")
    if supervision:
        print(
            f"supervision  inline {supervision['inline_wall_s']:5.3f}s  "
            f"supervised {supervision['supervised_wall_s']:7.3f}s  "
            f"overhead {supervision['overhead_frac'] * 100:+.1f}%"
        )
    if "output" in report:
        print(f"wrote {report['output']}")
    if not args.no_history:
        return _bench_history(args, report)
    return 0


def cmd_metrics(args) -> int:
    """Fold metrics manifests and render them as Prometheus text.

    Each ``--merge`` file is a manifest written by a sweep's (or
    ``chaos``'s) ``--metrics``; counters sum, gauges keep their
    high-water mark and samplers merge, so worker or run shards fold
    into one exposition on stdout.  ``--json`` also writes the folded
    manifest.
    """
    import json as _json

    from .metrics import MetricsRegistry, render_manifest_prometheus

    registry = MetricsRegistry()
    for path in args.merge:
        with open(path, "r", encoding="utf-8") as handle:
            registry.merge_manifest(_json.load(handle))
    if args.json:
        # stderr: stdout carries the Prometheus text.
        _write_json(args.json, registry.to_manifest(), stream=sys.stderr)
    sys.stdout.write(render_manifest_prometheus(registry.to_manifest()))
    return 0


def cmd_trace(args) -> int:
    from .telemetry import collecting, write_chrome_trace

    config = _config(args).replace(
        telemetry_enabled=True,
        telemetry_ring_capacity=args.ring,
    )
    with collecting() as frame:
        if args.figure == "fig2":
            from .reveng import sweep_tpc_pairing

            sweep_tpc_pairing(config, ops=args.ops)
        elif args.figure == "fig5":
            from .reveng import rw_contention_profile

            rw_contention_profile(config, ops=args.ops)
        elif args.figure == "fig9":
            from .analysis.figures import fig9_latency_trace

            fig9_latency_trace(config, with_sync=True, num_bits=args.bits)
        else:  # transmit
            from .channel import TpcCovertChannel

            channel = TpcCovertChannel(config)
            channel.calibrate()
            channel.transmit([i % 2 for i in range(args.bits)])
    hubs = frame.hubs()
    if not hubs:
        print("no telemetry hubs were created; nothing to export",
              file=sys.stderr)
        return 1
    trace = write_chrome_trace(args.out, hubs)
    events = sum(len(hub.tracer) for hub in hubs)
    dropped = sum(hub.tracer.dropped for hub in hubs)
    print(f"traced {args.figure}: {len(hubs)} device(s), "
          f"{events} buffered events ({dropped} evicted), "
          f"{len(trace['traceEvents'])} trace entries")
    print(f"wrote {args.out} — open at https://ui.perfetto.dev "
          f"or chrome://tracing")
    return 0


def cmd_fuzz(args) -> int:
    from .validate import fuzz

    runs = args.runs if args.runs is not None else (6 if args.quick else 25)

    def report(case) -> None:
        status = "ok  " if case.ok else "FAIL"
        print(
            f"{status} case seed={case.seed} cycles={case.cycles} "
            f"packets={case.injected} [{case.summary}]"
        )
        if not case.ok:
            print(f"     {case.failure}")

    from .validate.oracle import DEFAULT_STRATEGIES

    outcome = fuzz(
        runs=runs,
        seed=args.seed,
        max_cycles=args.cycles,
        oracle=not args.no_oracle,
        on_case=report,
        strategies=tuple(args.strategies or DEFAULT_STRATEGIES),
    )
    failed = len(outcome.failures)
    print(f"{len(outcome.cases)} case(s), {failed} failure(s)")
    if failed:
        print(
            "replay a failing case with: "
            f"python -m repro fuzz --seed {outcome.failures[0].seed} --runs 1",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    """Fault-injection drill for the supervised sweep runner."""
    from .runner import run_chaos
    from .runner.chaos import FAULT_PLANS

    kinds = tuple(args.kinds or FAULT_PLANS)
    for kind in kinds:
        if kind not in FAULT_PLANS:
            print(f"unknown fault kind {kind!r}; choose from "
                  f"{sorted(FAULT_PLANS)}", file=sys.stderr)
            return 2
    num_jobs = args.jobs if args.jobs is not None else (
        12 if args.quick else 32
    )
    timeout = args.timeout if args.timeout is not None else (
        0.3 if args.quick else 0.5
    )

    def progress(done: int, total: int) -> None:
        print(f"\rchaos sweep: {done}/{total}", end="", flush=True)

    report = run_chaos(
        seed=args.seed, num_jobs=num_jobs, kinds=kinds,
        workers=args.workers, timeout_s=timeout,
        on_progress=progress if not args.quiet else None,
    )
    if not args.quiet:
        print()
    print(format_table(
        ["job", "injected fault plan"],
        sorted(report.fault_plan.items()),
    ))
    counters = report.counters
    print(
        f"{report.jobs} jobs, {counters.get('attempts', 0)} attempts, "
        f"{counters.get('retries', 0)} retries | failures: "
        f"{counters.get('failures_exception', 0)} exception, "
        f"{counters.get('failures_timeout', 0)} timeout, "
        f"{counters.get('failures_worker_death', 0)} worker-death"
    )
    print(f"healthy results bit-identical to fault-free reference: "
          f"{report.healthy_identical}")
    print(f"resume replayed {report.resume['replayed']} point(s), "
          f"re-executed {report.resume['reexecuted']}")
    print(f"cache corruption: {report.quarantine['injected']} injected, "
          f"{report.quarantine['quarantined']} quarantined")
    for problem in report.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if args.manifest:
        _write_json(args.manifest, report.to_dict())
    if args.metrics and report.metrics is not None:
        _write_json(args.metrics, report.metrics)
    print("chaos drill: " + ("OK" if report.ok else "FAILED"))
    return 0 if report.ok else 1


def _parse_kv(pairs, label: str) -> dict:
    """Parse repeated ``key=value`` options (``--param``/``--override``).

    Values go through ``ast.literal_eval`` so ints, floats, tuples and
    quoted strings round-trip; anything unparsable stays a bare string
    (e.g. ``arbitration=srr``).
    """
    import ast

    parsed = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            print(f"bad {label} {pair!r}; expected key=value",
                  file=sys.stderr)
            raise SystemExit(2)
        try:
            parsed[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            parsed[key] = raw
    return parsed


def cmd_golden(args) -> int:
    from .runner import ResultCache
    from .testing import (
        GoldenStore,
        artifacts_for_scale,
        check_artifact,
        get_artifact,
        record_artifact,
        reduce_failure,
    )
    from .testing.harness import SCALE_FACTORIES, artifact_config

    scale = args.scale
    if scale not in SCALE_FACTORIES:
        print(
            f"golden supports scales {sorted(SCALE_FACTORIES)}, "
            f"not {scale!r}", file=sys.stderr,
        )
        return 2
    store = GoldenStore(args.golden_dir)
    cache = None if args.no_cache else ResultCache()

    if args.action == "list":
        rows = []
        for artifact in artifacts_for_scale(scale):
            rows.append((
                artifact.id,
                ", ".join(exp.id for exp in artifact.expectations),
                "yes" if store.exists(artifact.id, scale) else "no",
            ))
        print(format_table(["artifact", "expectations", "golden"], rows))
        return 0

    chosen = args.artifacts or [
        artifact.id for artifact in artifacts_for_scale(scale)
    ]
    for artifact_id in chosen:
        get_artifact(artifact_id)  # fail fast on typos

    if args.action in ("record", "update"):
        wrote = 0
        for artifact_id in chosen:
            if args.action == "record" and store.exists(artifact_id, scale):
                print(f"keep  {store.path(artifact_id, scale)}")
                continue
            path = record_artifact(
                artifact_id, scale, cache=cache,
                workers=args.workers, store=store,
            )
            wrote += 1
            print(f"wrote {path}")
        print(f"{wrote} golden(s) recorded at scale {scale}")
        return 0

    # action == "check".  A custom sweep (explicit seeds, params, or a
    # deliberate perturbation) is judged on expectations only: goldens
    # were recorded on the unmodified config, so a drift comparison
    # would always report a meaningless config mismatch.
    params = _parse_kv(args.param, "--param") or None
    overrides = _parse_kv(args.override, "--override") or None
    try:  # an unbuildable config fails here, before any job is forked
        for artifact_id in chosen:
            artifact_config(get_artifact(artifact_id), scale, overrides)
    except (TypeError, ValueError) as exc:
        print(f"repro golden: error: bad --override: {exc}", file=sys.stderr)
        return 2
    against_golden = (
        params is None and overrides is None and args.seeds is None
    )
    runs = [
        check_artifact(
            artifact_id, scale, seeds=args.seeds, params=params,
            overrides=overrides, cache=cache, workers=args.workers,
            store=store, golden=against_golden,
        )
        for artifact_id in chosen
    ]
    failed = [run for run in runs if not run.passed]
    for run in runs:
        print(run.report())
    if args.report:
        _write_json(args.report, {
            "scale": scale,
            "passed": not failed,
            "artifacts": [run.to_dict() for run in runs],
        })
    print(
        f"{len(runs)} artifact(s) checked at scale {scale}: "
        f"{len(runs) - len(failed)} passed, {len(failed)} failed"
    )
    if failed and args.reduce:
        first = failed[0]
        misses = first.failed_expectations()
        if misses:
            reduction = reduce_failure(
                first.artifact.id, misses[0].expectation_id, scale,
                seeds=args.seeds, params=params, overrides=overrides,
                cache=cache,
            )
            print(reduction.report())
    if any(run.golden_error for run in runs):
        return 2
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU NoC covert channel (MICRO 2021) experiments",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="simulated GPU size (default: small; bench defaults to "
             "volta)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="run with conservation-invariant checking enabled "
             "(repro.validate; aborts on the first inconsistency)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the GPU configuration")

    transmit = sub.add_parser("transmit", help="send a message covertly")
    transmit.add_argument("--message", default="covert")
    transmit.add_argument("--all-tpcs", action="store_true",
                          help="use every TPC as a parallel channel")

    for name, needs_ops in (("fig2", True), ("fig5", True), ("fig15", True)):
        p = sub.add_parser(name, help=f"reproduce {name}")
        if needs_ops:
            p.add_argument("--ops", type=int, default=8)

    sub.add_parser("fig6", help="reproduce fig6 (clock survey)")

    fig10 = sub.add_parser("fig10", help="reproduce fig10 (bw vs error)")
    fig10.add_argument(
        "--panel", choices=("tpc", "multi-tpc", "gpc", "multi-gpc"),
        default="tpc",
    )
    fig10.add_argument("--iterations", type=_POSITIVE_INT, nargs="+",
                       default=[1, 2, 3, 4, 5])
    fig10.add_argument("--bits", type=_POSITIVE_INT, default=12)

    table2 = sub.add_parser("table2", help="measured channel summary")
    table2.add_argument("--bits", type=_POSITIVE_INT, default=10)

    linkchan = sub.add_parser(
        "linkchan",
        help="NVLink-class inter-GPU covert channel sweep "
             "(multi-device fabric; bw vs error per iteration count)",
    )
    linkchan.add_argument("--iterations", type=_POSITIVE_INT, nargs="+",
                          default=[1, 2, 3],
                          help="sender/receiver memory ops per bit slot")
    linkchan.add_argument("--bits", type=_POSITIVE_INT, default=16,
                          help="payload bits per sweep point")
    linkchan.add_argument("--devices", type=_at_least(int, 2), default=2,
                          help="GPUs in the fabric (attacker is device 0)")
    linkchan.add_argument(
        "--topology", choices=("ring", "full", "switch"), default="ring",
        help="fabric shape (default: ring)",
    )
    linkchan.add_argument("--link-width", type=int, default=4,
                          help="link bandwidth in flits/cycle")
    linkchan.add_argument("--link-latency", type=int, default=150,
                          help="one-way link flight time in cycles")

    serve = sub.add_parser(
        "serve",
        help="sweep service: run a fig10 grid through the async dedup "
             "scheduler and answer capacity queries from the surface",
    )
    serve.add_argument(
        "--panel", choices=("tpc", "multi-tpc", "gpc", "multi-gpc"),
        default="tpc",
    )
    serve.add_argument("--iterations", type=_POSITIVE_INT, nargs="+",
                       default=[1, 2, 4],
                       help="swept iteration counts (the surface grid)")
    serve.add_argument("--bits", type=_POSITIVE_INT, default=8,
                       help="payload bits per sweep point")
    serve.add_argument(
        "--queries", default=None, metavar="FILE",
        help="JSON list of queries: iteration counts or "
             "{\"iterations\": x} objects (default: the swept grid)",
    )
    serve.add_argument(
        "--answers", default="serve-answers.json", metavar="FILE",
        help="answers manifest output (default: serve-answers.json)",
    )
    serve.add_argument(
        "--shards", type=_POSITIVE_INT, default=ServiceConfig.shards,
        help="service shard workers (default: %(default)s)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=None, metavar="N",
        help="LRU-evict the artifact store beyond N entries",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=None, metavar="BYTES",
        help="LRU-evict the artifact store beyond BYTES total",
    )
    serve.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="staleness bound: refuse answers from a surface older "
             "than this",
    )

    # Every command that runs sweep jobs; ``_sweep_policy`` reads these.
    for sweep in (fig10, table2, linkchan, serve):
        sweep.add_argument(
            "--no-cache", action="store_true",
            help="bypass the on-disk result cache (.repro_cache)",
        )
        sweep.add_argument(
            "--timeout", type=_POSITIVE_FLOAT, default=None,
            metavar="SECONDS",
            help="per-job wall-clock budget; a worker exceeding it is "
                 "killed and the job retried",
        )
        sweep.add_argument(
            "--retries", type=_at_least(int, 0), default=None, metavar="N",
            help="extra attempts per failed job, with exponential backoff",
        )
        sweep.add_argument(
            "--metrics", default=None, metavar="FILE",
            help="profile the sweep's jobs (metrics_enabled) and write its "
                 "mergeable metrics manifest as JSON: supervision, store "
                 "and fresh-job engine-profile counters (fold with "
                 "'metrics --merge').  metrics_enabled is part of the "
                 "config, so profiled points key separately in the store",
        )

    for sweep in (fig10, table2, linkchan):
        sweep.add_argument(
            "--workers", type=_POSITIVE_INT, default=None,
            help="parallel supervised worker processes (default: one per "
                 "sweep point, capped at the CPU count)",
        )
        sweep.add_argument(
            "--keep-going", action="store_true",
            help="complete the sweep despite failed jobs; failures are "
                 "reported as structured records (exit code 1)",
        )
        sweep.add_argument(
            "--progress", action="store_true",
            help="live single-line sweep progress on stderr (done/total, "
                 "cache hits, retries, per-worker elapsed)",
        )

    bench = sub.add_parser(
        "bench", help="time the naive vs active-set engine strategies"
    )
    bench.add_argument("--bits", type=_POSITIVE_INT, default=24,
                       help="symbols per benchmark workload")
    bench.add_argument("--output", default="BENCH_engine.json",
                       help="report file (default: BENCH_engine.json)")
    bench.add_argument("--no-output", action="store_true",
                       help="print the summary without writing the report")
    bench.add_argument("--progress", action="store_true",
                       help="print each benchmark phase as it starts")
    bench.add_argument(
        "--history-file", default=None, metavar="FILE",
        help="bench trajectory file (default: BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--no-history", action="store_true",
        help="skip the BENCH_history.jsonl check-and-append",
    )
    bench.add_argument(
        "--check-history", action="store_true",
        help="exit 3 if any throughput falls >20%% below the trailing "
             "median of comparable prior runs (same config and host)",
    )
    bench.add_argument(
        "--from-report", default=None, metavar="FILE",
        help="skip benchmarking; re-check an existing report JSON "
             "against the history (no append)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="fold metrics manifests written by a sweep's --metrics and "
             "render them as Prometheus text",
    )
    metrics.add_argument(
        "--merge", nargs="+", required=True, metavar="FILE",
        help="manifest files (shards) to fold into one exposition",
    )
    metrics.add_argument("--json", default=None, metavar="FILE",
                         help="also write the folded JSON manifest")

    trace = sub.add_parser(
        "trace",
        help="run an experiment with telemetry and export a Perfetto trace",
    )
    trace.add_argument(
        "--figure", choices=("fig2", "fig5", "fig9", "transmit"),
        default="fig5", help="which experiment to trace (default: fig5)",
    )
    trace.add_argument("--out", default="trace.json",
                       help="output file (Chrome trace-event JSON)")
    trace.add_argument("--bits", type=_POSITIVE_INT, default=16,
                       help="payload bits for fig9/transmit")
    trace.add_argument("--ops", type=int, default=8,
                       help="accesses per kernel for fig2/fig5")
    trace.add_argument("--ring", type=int, default=262144,
                       help="event ring-buffer capacity")

    fuzz = sub.add_parser(
        "fuzz",
        help="randomized integrity fuzzing (invariants + lockstep oracle)",
    )
    fuzz.add_argument("--runs", type=_POSITIVE_INT, default=None,
                      help="number of cases (default: 25, or 6 with --quick)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first case seed (cases use seed..seed+runs-1)")
    fuzz.add_argument("--cycles", type=int, default=200_000,
                      help="per-case cycle budget before declaring no-drain")
    fuzz.add_argument("--no-oracle", action="store_true",
                      help="skip the lockstep engine comparison")
    fuzz.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        choices=("naive", "active"),
        help="engine strategies for the lockstep oracle; the first is "
             "the baseline (default: naive active)",
    )
    fuzz.add_argument("--quick", action="store_true",
                      help="CI mode: a small time-boxed case budget")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection drill: crash/hang/kill workers mid-sweep "
             "and verify supervision, resume and cache quarantine",
    )
    chaos.add_argument("--jobs", type=_POSITIVE_INT, default=None,
                       help="sweep size (default: 32, or 12 with --quick)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-placement seed")
    chaos.add_argument(
        "--kind", action="append", dest="kinds", metavar="KIND",
        help="inject only this fault kind (repeatable; default: all)",
    )
    chaos.add_argument("--timeout", type=_POSITIVE_FLOAT, default=None,
                       help="per-job supervision timeout in seconds "
                            "(default: 0.5, or 0.3 with --quick)")
    chaos.add_argument("--workers", type=_POSITIVE_INT, default=None,
                       help="concurrent supervised workers")
    chaos.add_argument("--manifest", default="chaos-manifest.json",
                       metavar="FILE",
                       help="write the failure manifest as JSON "
                            "(default: chaos-manifest.json)")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke budget: fewer jobs, tighter timeout")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress the live progress line")
    chaos.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the chaos sweep's labeled metrics manifest as JSON "
             "(mergeable via 'python -m repro metrics --merge')",
    )

    golden = sub.add_parser(
        "golden",
        help="golden-metric regression harness (statistical acceptance "
             "tests for every paper artifact)",
    )
    golden.add_argument(
        "action", choices=("record", "check", "update", "list"),
        help="record missing goldens / check against them / re-record "
             "all / list artifacts",
    )
    golden.add_argument(
        "--artifact", action="append", dest="artifacts", metavar="ID",
        help="limit to one artifact (repeatable; default: all at scale)",
    )
    golden.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="override the artifact's seed sweep (check only)",
    )
    golden.add_argument(
        "--param", action="append", metavar="K=V",
        help="override a workload parameter, e.g. ops=4 (check only)",
    )
    golden.add_argument(
        "--override", action="append", metavar="K=V",
        help="override a GpuConfig field, e.g. arbitration=srr "
             "(check only; used to perturb and to replay reductions)",
    )
    golden.add_argument(
        "--workers", type=_POSITIVE_INT, default=1,
        help="parallel worker processes per seed sweep (default: 1)",
    )
    golden.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (.repro_cache)",
    )
    golden.add_argument(
        "--reduce", action="store_true",
        help="on failure, bisect the first miss to the smallest config "
             "that still reproduces it",
    )
    golden.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the expectation/drift report as JSON",
    )
    golden.add_argument(
        "--golden-dir", default=None,
        help="golden snapshot directory (default: tests/golden, or "
             "$REPRO_GOLDEN_DIR)",
    )

    return parser


COMMANDS = {
    "info": cmd_info,
    "transmit": cmd_transmit,
    "fig2": cmd_fig2,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig10": cmd_fig10,
    "fig15": cmd_fig15,
    "linkchan": cmd_linkchan,
    "serve": cmd_serve,
    "table2": cmd_table2,
    "bench": cmd_bench,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "fuzz": cmd_fuzz,
    "chaos": cmd_chaos,
    "golden": cmd_golden,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scale is None:
        args.scale = COMMAND_SCALES.get(args.command, DEFAULT_SCALE)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
