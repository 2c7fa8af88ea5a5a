"""Reverse engineering of the GPU on-chip network (Section 3 & 4.3)."""

from .._lazy import lazy_exports

__all__ = [
    "TpcSweepResult",
    "measure_active_sms",
    "recover_tpc_pairs",
    "sweep_tpc_pairing",
    "GpcSweepResult",
    "recover_gpc_groups",
    "sweep_gpc_membership",
    "verify_topology",
    "RwContentionProfile",
    "SharingSweepResult",
    "gpc_sharing_sweep",
    "mux_sharing_sweep",
    "rw_contention_profile",
    "ClockSurvey",
    "repeated_skew_statistics",
    "survey_clocks",
    "ColocationPlan",
    "detect_colocation_by_contention",
    "infer_scheduling_policy",
    "plan_tpc_colocation",
    "probe_block_placement",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".tpc_discovery": (
            "TpcSweepResult", "measure_active_sms", "recover_tpc_pairs",
            "sweep_tpc_pairing",
        ),
        ".gpc_discovery": (
            "GpcSweepResult", "recover_gpc_groups", "sweep_gpc_membership",
            "verify_topology",
        ),
        ".contention": (
            "RwContentionProfile", "SharingSweepResult", "gpc_sharing_sweep",
            "mux_sharing_sweep", "rw_contention_profile",
        ),
        ".clockmap": (
            "ClockSurvey", "repeated_skew_statistics", "survey_clocks",
        ),
        ".colocation": (
            "ColocationPlan", "detect_colocation_by_contention",
            "infer_scheduling_policy", "plan_tpc_colocation",
            "probe_block_placement",
        ),
    },
)
