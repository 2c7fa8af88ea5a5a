"""Picklable, cacheable workload functions for the experiment runner.

Each function here is one *sweep point*: it takes a
:class:`~repro.config.GpuConfig` plus keyword parameters, runs a complete
simulation, and returns a plain JSON-serialisable dict.  They exist as
module-level functions (rather than closures inside the figure builders)
so :class:`~repro.runner.runner.SimJob` can reference them by dotted path
for multiprocessing dispatch and content-hash caching.

The TPC and GPC channels are imported at module level on purpose: the
supervisor imports a job's module in the parent before it forks, so
every worker starts with the single-GPU simulator already loaded.  The
multi-GPU interconnect stays behind :func:`link_channel_point`, the one
point that uses it.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from ..channel.gpc_channel import GpcCovertChannel
from ..channel.tpc_channel import TpcCovertChannel
from ..config import GpuConfig


def _build_channel(config: GpuConfig, kind: str, params: Any = None):
    builders = {
        "tpc": lambda p: TpcCovertChannel(config, params=p),
        "multi-tpc": lambda p: TpcCovertChannel.all_channels(config, params=p),
        "gpc": lambda p: GpcCovertChannel(config, params=p),
        "multi-gpc": lambda p: GpcCovertChannel.all_channels(config, params=p),
    }
    if kind not in builders:
        raise ValueError(f"unknown channel kind {kind!r}")
    return builders[kind](params)


def _measure(channel, payload_bits: int, seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    bits = [rng.randint(0, 1) for _ in range(payload_bits)]
    channel.calibrate(training_symbols=16)
    result = channel.transmit(bits)
    return {
        "cycles": result.cycles,
        "error_rate": result.error_rate,
        "bandwidth_bps": result.bandwidth_bps,
        "bandwidth_mbps": result.bandwidth_mbps,
    }


def fig10_point(
    config: GpuConfig,
    kind: str,
    iteration_count: int,
    bits_per_channel: int = 10,
    seed: int = 1021,
) -> Dict[str, Any]:
    """One Figure 10 point: bandwidth + error at one iteration count.

    Mirrors :func:`repro.analysis.figures.fig10_panel` exactly (same
    seed-salt discipline), so a runner-backed sweep reproduces the same
    numbers as the sequential builder.
    """
    probe = _build_channel(config, kind)
    params = probe.params.with_(iterations=iteration_count)
    channel = _build_channel(config, kind, params)
    channel.seed_salt = seed
    payload = bits_per_channel * channel.num_channels
    measured = _measure(channel, payload, seed)
    return {
        "iterations": iteration_count,
        "bandwidth_kbps": measured["bandwidth_bps"] / 1e3,
        "error_rate": measured["error_rate"],
    }


_TABLE2_CASES = {
    "tpc": "GPU TPC Channel",
    "multi-tpc": "GPU TPC Channel (all TPCs)",
    "gpc": "GPU GPC Channel",
    "multi-gpc": "GPU GPC Channel (all GPCs)",
}


def table2_point(
    config: GpuConfig,
    kind: str,
    bits_per_channel: int = 12,
    seed: int = 2021,
) -> Dict[str, Any]:
    """One Table 2 row: measured summary for one covert channel."""
    channel = _build_channel(config, kind)
    channel.seed_salt = seed
    payload = bits_per_channel * channel.num_channels
    measured = _measure(channel, payload, seed)
    return {
        "channel": _TABLE2_CASES[kind],
        "error_rate": measured["error_rate"],
        "bandwidth_mbps": measured["bandwidth_mbps"],
    }


def channel_run(
    config: GpuConfig,
    kind: str = "tpc",
    num_bits: int = 24,
    seed: int = 7,
) -> Dict[str, Any]:
    """Generic seeded channel transmission (used by examples/benchmarks)."""
    channel = _build_channel(config, kind)
    return _measure(channel, num_bits, seed)


def link_channel_point(
    config: GpuConfig,
    iteration_count: int = 2,
    bits: int = 16,
    seed: int = 3021,
    num_devices: int = 2,
    topology: str = "ring",
    link_width: int = 4,
    link_latency: int = 150,
    target_device: int = 1,
) -> Dict[str, Any]:
    """One NVLink-channel sweep point: bandwidth + error at one
    iteration count over a multi-GPU fabric.

    The fabric shape arrives as plain keyword parameters (not a
    :class:`~repro.config.LinkConfig`) so the job stays picklable and
    its cache key remains a flat parameter dict.
    """
    from ..channel.link_channel import LinkCovertChannel
    from ..config import LinkConfig

    link = LinkConfig(
        num_devices=num_devices,
        topology=topology,
        link_width=link_width,
        link_latency=link_latency,
    )
    probe = LinkCovertChannel(config, link, target_device=target_device)
    params = probe.params.with_(iterations=iteration_count)
    channel = LinkCovertChannel(
        config, link, params=params,
        seed_salt=seed, target_device=target_device,
    )
    measured = _measure(channel, bits, seed)
    return {
        "iterations": iteration_count,
        "topology": topology,
        "num_devices": num_devices,
        "bandwidth_kbps": measured["bandwidth_bps"] / 1e3,
        "error_rate": measured["error_rate"],
        "cycles": measured["cycles"],
    }


def service_probe_point(
    config: GpuConfig,
    token: str = "probe",
    value: float = 0.0,
    ledger_dir: str | None = None,
    delay_s: float = 0.0,
) -> Dict[str, Any]:
    """Deterministic no-simulation point for scheduler tests.

    Computes a cheap pure function of its parameters (so two subscribers
    can compare full payloads), optionally sleeps ``delay_s`` to hold a
    shard busy, and — when ``ledger_dir`` is given — appends one line to
    ``<ledger_dir>/<token>.log``.  The ledger is the execution count
    ground truth the property-based dedup tests assert on: a key that
    executed exactly once has exactly one line, regardless of how many
    requests subscribed to it.
    """
    import hashlib
    import os
    import time

    if delay_s > 0:
        time.sleep(delay_s)
    digest = hashlib.sha256(
        f"{token}:{value}:{config.seed}".encode()
    ).hexdigest()
    if ledger_dir is not None:
        os.makedirs(ledger_dir, exist_ok=True)
        path = os.path.join(ledger_dir, f"{token}.log")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{digest}\n")
    return {
        "token": token,
        "value": value,
        "seed": config.seed,
        "digest": digest,
    }
