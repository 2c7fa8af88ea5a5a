"""Registry of paper artifacts and their golden-metric expectations.

Each :class:`Artifact` binds one EXPERIMENTS.md row to

* a metric workload (dotted path into :mod:`repro.testing.workloads`),
* the scales it runs at, with per-scale workload parameters sized so the
  small tier stays CI-fast,
* a seed sweep (per-seed configs differ only in ``GpuConfig.seed``), and
* the :class:`~repro.testing.expectations.Expectation` list encoding the
  paper's shape claims for that artifact.

The acceptance bands were calibrated against the seed state of the
simulator (see EXPERIMENTS.md's measured column); they are deliberately
wider than the observed seed-to-seed spread so they gate *shape*
regressions, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from .expectations import (
    Expectation,
    below,
    between,
    flat,
    monotonic,
    ordering,
    ratio_near,
    slope_between,
)

#: Default seed sweep for every artifact (overridable per artifact).
DEFAULT_SEEDS: Tuple[int, ...] = (11, 12, 13)


@dataclass(frozen=True)
class Artifact:
    """One paper artifact wired into the regression harness."""

    id: str
    title: str
    #: Dotted path of the metric workload.
    fn: str
    #: scale name -> workload keyword parameters at that scale.
    scales: Mapping[str, Mapping[str, Any]]
    expectations: Tuple[Expectation, ...]
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    #: Config fields pinned for this artifact (applied before any
    #: caller overrides, e.g. a deliberate perturbation under test).
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Candidate config shrinks the failure reducer may try, in order:
    #: (name, config override dict).  Every entry must still satisfy the
    #: workload's topology needs (e.g. two SMs in one TPC).
    shrink_configs: Tuple[Tuple[str, Mapping[str, Any]], ...] = ()

    def expectation(self, expectation_id: str) -> Expectation:
        for exp in self.expectations:
            if exp.id == expectation_id:
                return exp
        raise KeyError(
            f"artifact {self.id!r} has no expectation {expectation_id!r}"
        )


#: A one-GPC topology that still contains a complete TPC (2 SMs sharing
#: a mux) — the smallest machine on which the TPC-level artifacts can
#: reproduce a failure.
_ONE_GPC = (
    "one-gpc",
    {
        "num_gpcs": 1,
        "tpcs_per_gpc": (2,),
        "num_l2_slices": 4,
        "num_memory_controllers": 2,
    },
)


def _artifact_list() -> List[Artifact]:
    return [
        Artifact(
            id="fig2",
            title="TPC discovery (Figure 2)",
            fn="repro.testing.workloads.fig2_metrics",
            scales={"small": {"ops": 6}},
            shrink_configs=(_ONE_GPC,),
            expectations=(
                ratio_near(
                    "fig2.sibling_2x", "sibling_ratio", 2.0, rel_tol=0.08,
                    claim="the TPC sibling doubles SM0's time",
                ),
                below(
                    "fig2.others_flat", "max_other_ratio", 1.15,
                    claim="all non-sibling SMs stay near 1.0x",
                ),
                between(
                    "fig2.sibling_detected", "sibling_detected", 0.99, 1.01,
                    claim="Algorithm 1 recovers exactly the sibling set",
                ),
            ),
        ),
        Artifact(
            id="fig5a",
            title="TPC channel read/write contention (Figure 5a)",
            fn="repro.testing.workloads.fig5a_metrics",
            # ``volta`` is the full Table-1 V100: the same contention
            # ratios must hold at the paper's scale.
            scales={"small": {"ops": 6}, "volta": {"ops": 6}},
            shrink_configs=(_ONE_GPC,),
            expectations=(
                ratio_near(
                    "fig5a.write_2x", "write_ratio", 2.0, rel_tol=0.08,
                    claim="co-located writes double execution time",
                ),
                between(
                    "fig5a.read_near_1x", "read_ratio", 0.95, 1.2,
                    claim="co-located reads barely contend",
                ),
            ),
        ),
        Artifact(
            id="fig5b",
            title="GPC channel degradation vs active TPCs (Figure 5b)",
            fn="repro.testing.workloads.fig5b_metrics",
            scales={"medium": {"ops": 5}},
            expectations=(
                monotonic(
                    "fig5b.read_monotonic", "read_series",
                    direction="increasing", slack=0.02,
                    claim="read degradation grows with active TPCs",
                ),
                between(
                    "fig5b.read_degrades", "read_endpoint", 1.25, 2.2,
                    claim="reads degrade visibly once the reply channel "
                          "oversubscribes",
                ),
                below(
                    "fig5b.write_within_speedup", "write_endpoint", 1.25,
                    claim="the GPC speedup absorbs full write streaming",
                ),
            ),
        ),
        Artifact(
            id="fig7_8",
            title="Mux-sharing leakage slope (Figures 7/8)",
            fn="repro.testing.workloads.fig7_8_metrics",
            scales={
                "small": {
                    "fractions": (0.0, 0.25, 0.5, 0.75, 1.0), "ops": 8,
                },
            },
            config_overrides={"timing_noise": 0},
            shrink_configs=(_ONE_GPC,),
            expectations=(
                slope_between(
                    "fig7_8.sharing_slope", "sharing_slope", 0.8, 1.2,
                    claim="probe time linear in the sibling's traffic",
                ),
                flat(
                    "fig7_8.non_sharing_flat", "non_sharing_slope", 0.1,
                    claim="a non-sharing SM's traffic does not leak",
                ),
                ratio_near(
                    "fig7_8.sharing_endpoint_2x", "sharing_endpoint", 2.0,
                    rel_tol=0.1,
                    claim="full-duty sibling traffic reaches ~2x",
                ),
            ),
        ),
        Artifact(
            id="fig10a",
            title="Single-TPC bandwidth/error vs iterations (Figure 10a)",
            fn="repro.testing.workloads.fig10a_metrics",
            scales={
                "small": {"iterations": (1, 2, 4), "bits_per_channel": 8},
            },
            shrink_configs=(_ONE_GPC,),
            expectations=(
                monotonic(
                    "fig10a.bandwidth_falls", "bandwidth_kbps",
                    direction="decreasing",
                    claim="bandwidth falls as iterations rise",
                ),
                below(
                    "fig10a.error_vanishes", "final_error", 0.05,
                    claim="error is gone by the highest iteration count",
                ),
            ),
        ),
        Artifact(
            id="fig14",
            title="Multi-level staircase (Figure 14)",
            fn="repro.testing.workloads.fig14_metrics",
            scales={"small": {"repeats": 4}},
            shrink_configs=(_ONE_GPC,),
            expectations=(
                monotonic(
                    "fig14.staircase", "level_means",
                    direction="increasing",
                    claim="the four density levels form a latency "
                          "staircase",
                ),
                Expectation(
                    id="fig14.span_positive", kind="band",
                    metrics=("staircase_span",), band=(50.0, float("inf")),
                    claim="levels are separated enough to decode",
                ),
            ),
        ),
        Artifact(
            id="fig15",
            title="Arbitration-policy leakage (Figure 15 / Section 6)",
            fn="repro.testing.workloads.fig15_metrics",
            scales={
                "small": {"fractions": (0.0, 0.5, 1.0), "ops": 8},
            },
            shrink_configs=(_ONE_GPC,),
            expectations=(
                slope_between(
                    "fig15.rr_leaks", "rr_slope", 0.5, 1.3,
                    claim="round-robin leaks linearly",
                ),
                slope_between(
                    "fig15.crr_leaks", "crr_slope", 0.3, 1.3,
                    claim="coarse RR still leaks",
                ),
                flat(
                    "fig15.srr_flat", "srr_slope", 0.05,
                    claim="strict RR removes the channel",
                ),
                ordering(
                    "fig15.srr_removes_channel",
                    ("rr_slope", "srr_slope"), min_gap=0.3,
                    claim="RR leaks decisively more than SRR",
                ),
            ),
        ),
        Artifact(
            id="linkchan",
            title="Inter-GPU link covert channel (NVLink-class fabric)",
            fn="repro.testing.workloads.linkchan_metrics",
            scales={"small": {"iterations": (1, 2), "bits": 8}},
            shrink_configs=(_ONE_GPC,),
            expectations=(
                monotonic(
                    "linkchan.bandwidth_falls", "bandwidth_kbps",
                    direction="decreasing",
                    claim="bandwidth falls as iterations rise",
                ),
                below(
                    "linkchan.error_vanishes", "final_error", 0.05,
                    claim="error is gone by the highest iteration count",
                ),
                Expectation(
                    id="linkchan.bandwidth_positive", kind="band",
                    metrics=("min_bandwidth_kbps",),
                    band=(1.0, float("inf")),
                    claim="the link channel moves bits at every "
                          "iteration count",
                ),
            ),
        ),
        Artifact(
            id="table2",
            title="Measured channel summary (Table 2)",
            fn="repro.testing.workloads.table2_metrics",
            # ``volta`` (full V100) is the scale Table 2 actually reports.
            scales={
                "small": {"bits_per_channel": 6},
                "volta": {"bits_per_channel": 6},
            },
            expectations=(
                ordering(
                    "table2.bandwidth_ordering",
                    ("multi_tpc_mbps", "tpc_mbps", "gpc_mbps"),
                    claim="multi-TPC > TPC > GPC bandwidth ordering",
                ),
                below(
                    "table2.tpc_error", "tpc_error", 0.05,
                    claim="the TPC channel is essentially error-free",
                ),
                ordering(
                    "table2.multi_gain", ("multi_tpc_mbps", "tpc_mbps"),
                    min_gap=0.2,
                    claim="parallel TPC channels multiply bandwidth",
                ),
            ),
        ),
    ]


#: Artifact id -> Artifact.
ARTIFACTS: Dict[str, Artifact] = {a.id: a for a in _artifact_list()}


def get_artifact(artifact_id: str) -> Artifact:
    try:
        return ARTIFACTS[artifact_id]
    except KeyError:
        raise KeyError(
            f"unknown artifact {artifact_id!r}; have {sorted(ARTIFACTS)}"
        ) from None


def artifacts_for_scale(scale: str) -> List[Artifact]:
    """Artifacts that define parameters for ``scale``, in registry order."""
    return [a for a in ARTIFACTS.values() if scale in a.scales]

