"""Metric workloads for the golden-metric regression harness.

One module-level function per paper artifact: each takes a fully-seeded
:class:`~repro.config.GpuConfig` plus scale parameters, runs the
underlying experiment, and returns a flat JSON-serialisable dict of
*metrics* — scalars (ratios, slopes, error rates) or equal-length series
(per-iteration bandwidths, staircase levels).  They are referenced by
dotted path from :mod:`repro.testing.artifacts` so seed sweeps fan out
through :mod:`repro.runner` with content-hash caching, exactly like the
figure sweeps themselves.

All per-seed variation flows from ``config.seed``; a workload must not
read any other source of randomness.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..analysis.figures import fig10_panel, fig14_multilevel_trace
from ..config import GpuConfig
from ..defense import arbitration_leakage_sweep
from ..reveng import (
    mux_sharing_sweep,
    rw_contention_profile,
    sweep_tpc_pairing,
)
from ..runner.workloads import link_channel_point, table2_point


def fig2_metrics(config: GpuConfig, ops: int = 6) -> Dict[str, Any]:
    """Figure 2: TPC-pair discovery contrast.

    ``sibling_ratio`` is SM0's normalized time co-running with its TPC
    sibling (SM1 by construction); ``max_other_ratio`` the worst
    non-sibling; ``sibling_detected`` whether Algorithm 1's threshold
    recovers exactly the sibling set.
    """
    sweep = sweep_tpc_pairing(config, ops=ops)
    normalized = sweep.normalized()
    siblings = set(config.tpc_sms(config.sm_to_tpc(0))) - {0}
    others = [
        ratio for sm, ratio in normalized.items() if sm not in siblings
    ]
    detected = set(sweep.partner_of_sm0()) == siblings
    return {
        "sibling_ratio": min(normalized[sm] for sm in siblings),
        "max_other_ratio": max(others),
        "sibling_detected": 1.0 if detected else 0.0,
    }


def fig5a_metrics(config: GpuConfig, ops: int = 6) -> Dict[str, Any]:
    """Figure 5a: TPC-channel read/write contention ratios (2 SMs)."""
    profile = rw_contention_profile(config, ops=ops, max_tpcs=1)
    return {
        "write_ratio": profile.tpc["write"],
        "read_ratio": profile.tpc["read"],
    }


def fig5b_metrics(config: GpuConfig, ops: int = 5) -> Dict[str, Any]:
    """Figure 5b: GPC-channel degradation vs number of active TPCs."""
    profile = rw_contention_profile(config, ops=ops)
    return {
        "read_series": profile.gpc["read"],
        "read_endpoint": profile.gpc["read"][-1],
        "write_endpoint": profile.gpc["write"][-1],
    }


def fig7_8_metrics(
    config: GpuConfig,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    ops: int = 8,
) -> Dict[str, Any]:
    """Figures 7/8: mux-sharing leakage slope (and the flat control).

    The sweep labels its series by concrete SM ids, which vary with the
    scale; positionally the first series is always the TPC-sharing
    co-runner and the second the non-sharing control.
    """
    sweep = mux_sharing_sweep(config, fractions=fractions, ops=ops)
    sharing_label, control_label = list(sweep.series)
    return {
        "sharing_slope": sweep.slope(sharing_label),
        "non_sharing_slope": sweep.slope(control_label),
        "sharing_endpoint": sweep.series[sharing_label][-1],
    }


def fig10a_metrics(
    config: GpuConfig,
    iterations: Sequence[int] = (1, 2, 4),
    bits_per_channel: int = 8,
) -> Dict[str, Any]:
    """Figure 10a: single-TPC channel bandwidth/error vs iterations."""
    series = fig10_panel(
        config,
        "tpc",
        iterations=tuple(iterations),
        bits_per_channel=bits_per_channel,
        seed=1000 + config.seed,
    )
    return {
        "bandwidth_kbps": [p.bandwidth_kbps for p in series.points],
        "error_rate": [p.error_rate for p in series.points],
        "final_error": series.points[-1].error_rate,
    }


def fig14_metrics(config: GpuConfig, repeats: int = 4) -> Dict[str, Any]:
    """Figure 14: per-symbol latency means of the 4-level staircase."""
    pattern, trace = fig14_multilevel_trace(config, repeats=repeats)
    by_symbol: Dict[int, list] = {}
    for symbol, value in zip(pattern, trace):
        by_symbol.setdefault(symbol, []).append(value)
    means = [
        sum(by_symbol[s]) / len(by_symbol[s]) for s in sorted(by_symbol)
    ]
    return {
        "level_means": means,
        "staircase_span": means[-1] - means[0],
    }


def fig15_metrics(
    config: GpuConfig,
    fractions: Sequence[float] = (0.0, 0.5, 1.0),
    ops: int = 8,
) -> Dict[str, Any]:
    """Figure 15: leakage slope per arbitration policy.

    Note the sweep pins each policy itself (``config.replace(arbitration=
    policy)``), so this artifact is insensitive to the base config's
    arbitration field — the mux-leakage artifact (fig7_8) is the one a
    perturbed arbiter policy breaks.
    """
    sweep = arbitration_leakage_sweep(
        config.replace(timing_noise=0), fractions=fractions, ops=ops
    )
    return {
        "rr_slope": sweep.slope("rr"),
        "crr_slope": sweep.slope("crr"),
        "srr_slope": sweep.slope("srr"),
    }


def linkchan_metrics(
    config: GpuConfig,
    iterations: Sequence[int] = (1, 2),
    bits: int = 8,
) -> Dict[str, Any]:
    """NVLink-class link channel: bandwidth/error vs iteration count.

    Runs the 2-device ring :class:`~repro.channel.link_channel.
    LinkCovertChannel` sweep the ``linkchan`` CLI command exposes, at
    golden-harness size.  ``min_bandwidth_kbps`` pins the acceptance
    floor (the channel must actually move bits) and ``final_error`` the
    highest-iteration error rate.
    """
    bandwidth: list = []
    error: list = []
    for count in iterations:
        row = link_channel_point(
            config,
            iteration_count=count,
            bits=bits,
            seed=3000 + config.seed,
        )
        bandwidth.append(row["bandwidth_kbps"])
        error.append(row["error_rate"])
    return {
        "bandwidth_kbps": bandwidth,
        "error_rate": error,
        "final_error": error[-1],
        "min_bandwidth_kbps": min(bandwidth),
    }


def table2_metrics(
    config: GpuConfig, bits_per_channel: int = 6
) -> Dict[str, Any]:
    """Table 2: bandwidth/error summary of all four covert channels."""
    metrics: Dict[str, Any] = {}
    for kind, prefix in (
        ("tpc", "tpc"),
        ("multi-tpc", "multi_tpc"),
        ("gpc", "gpc"),
        ("multi-gpc", "multi_gpc"),
    ):
        row = table2_point(
            config,
            kind,
            bits_per_channel=bits_per_channel,
            seed=2000 + config.seed,
        )
        metrics[f"{prefix}_mbps"] = row["bandwidth_mbps"]
        metrics[f"{prefix}_error"] = row["error_rate"]
    return metrics
