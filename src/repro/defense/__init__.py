"""Countermeasures against the interconnect covert channel (Section 6)."""

from .._lazy import lazy_exports

__all__ = [
    "ArbitrationSweep",
    "DefenseOutcome",
    "FIG15_POLICIES",
    "SrrCostReport",
    "arbitration_leakage_sweep",
    "covert_channel_under_policy",
    "srr_performance_cost",
    "srr_workload_cost_study",
    "ClockFuzzStudy",
    "run_clock_fuzz_study",
    "ContentionMonitor",
    "DetectionReport",
    "DetectorModel",
    "TpcTelemetry",
    "benign_trace",
    "covert_channel_trace",
    "run_detection_study",
    "train_detector",
    "MigInstance",
    "TemporalPartitionPlan",
    "colocation_blocked",
    "cross_instance_channel_possible",
    "make_mig_partition",
    "partition_utilization",
    "temporal_partition",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arbitration_study": (
            "ArbitrationSweep", "DefenseOutcome", "FIG15_POLICIES",
            "SrrCostReport", "arbitration_leakage_sweep",
            "covert_channel_under_policy", "srr_performance_cost",
            "srr_workload_cost_study",
        ),
        ".clock_fuzz": ("ClockFuzzStudy", "run_clock_fuzz_study"),
        ".detection": (
            "ContentionMonitor", "DetectionReport", "DetectorModel",
            "TpcTelemetry", "benign_trace", "covert_channel_trace",
            "run_detection_study", "train_detector",
        ),
        ".partition": (
            "MigInstance", "TemporalPartitionPlan", "colocation_blocked",
            "cross_instance_channel_possible", "make_mig_partition",
            "partition_utilization", "temporal_partition",
        ),
    },
)
