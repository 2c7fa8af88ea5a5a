"""Golden-metric regression harness: statistical acceptance testing.

Turns EXPERIMENTS.md into executable acceptance tests:

* :mod:`repro.testing.expectations` — a declarative DSL
  (``ratio_near``, ``slope_between``, ``ordering``, ``flat``,
  ``monotonic``, …) for the paper's shape claims, each evaluated over a
  seed sweep with t-confidence bands;
* :mod:`repro.testing.artifacts` — the registry binding every paper
  artifact to a metric workload, scales, seeds, and expectations;
* :mod:`repro.testing.golden` — committed per-artifact metric
  snapshots under ``tests/golden/`` with statistical drift checking;
* :mod:`repro.testing.harness` — seed-sweep execution through
  :mod:`repro.runner` (parallel fan-out + result cache);
* :mod:`repro.testing.reducer` — shrinks a regressed metric to the
  smallest (SM count, cycle budget) setup that still reproduces it.

CLI: ``python -m repro [--scale small] golden {record,check,update,list}``.
Pytest: mark tests ``@paper_artifact("fig10a", scale="small")`` (see
``tests/plugin.py``) and assert on the injected ``artifact_run``.
"""

from .._lazy import lazy_exports

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "ArtifactRun",
    "ConfidenceInterval",
    "DriftResult",
    "Expectation",
    "ExpectationResult",
    "GoldenStore",
    "MissingGoldenError",
    "Reduction",
    "StaleGoldenError",
    "above",
    "artifacts_for_scale",
    "below",
    "between",
    "check_artifact",
    "config_hash",
    "flat",
    "get_artifact",
    "mean_interval",
    "monotonic",
    "ordering",
    "ratio_near",
    "record_artifact",
    "reduce_failure",
    "run_artifact",
    "scale_config",
    "slope_between",
    "t_critical",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".artifacts": (
            "ARTIFACTS", "Artifact", "artifacts_for_scale", "get_artifact",
        ),
        ".expectations": (
            "Expectation", "ExpectationResult", "above", "below", "between",
            "flat", "monotonic", "ordering", "ratio_near", "slope_between",
        ),
        ".golden": (
            "DriftResult", "GoldenStore", "MissingGoldenError",
            "StaleGoldenError", "config_hash",
        ),
        ".harness": (
            "ArtifactRun", "check_artifact", "record_artifact",
            "run_artifact", "scale_config",
        ),
        ".reducer": ("Reduction", "reduce_failure"),
        ".stats": ("ConfidenceInterval", "mean_interval", "t_critical"),
    },
)
