"""Seed-sweep execution and evaluation of paper artifacts.

``run_artifact`` fans an artifact's seed sweep over
:func:`repro.runner.run_supervised` (supervised worker processes +
content-hash result cache, the same machinery the figure sweeps use),
folds the per-seed metric dicts into ``{metric: [per-seed samples]}``,
and ``check_artifact`` evaluates the artifact's expectations — and,
when a committed golden exists, the statistical drift check — into one
:class:`ArtifactRun` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..config import (
    GpuConfig,
    VOLTA_V100,
    medium_config,
    small_config,
)
from ..runner import ResultCache, SimJob, SweepError, run_supervised
from .artifacts import Artifact, get_artifact
from .expectations import ExpectationResult
from .golden import (
    DriftResult,
    GoldenStore,
    MissingGoldenError,
    StaleGoldenError,
)

#: Scales the golden harness understands.  ``volta`` is the full
#: Table-1 V100 (80 SMs, 48 L2 slices).
SCALE_FACTORIES = {
    "small": small_config,
    "medium": medium_config,
    "volta": lambda: VOLTA_V100,
}


def scale_config(scale: str) -> GpuConfig:
    try:
        return SCALE_FACTORIES[scale]()
    except KeyError:
        raise ValueError(
            f"unknown golden scale {scale!r}; have {sorted(SCALE_FACTORIES)}"
        ) from None


def artifact_config(
    artifact: Artifact,
    scale: str,
    overrides: Optional[Mapping[str, Any]] = None,
) -> GpuConfig:
    """The (unseeded) config an artifact runs on at ``scale``.

    Artifact-pinned fields apply first, then caller ``overrides`` — so a
    deliberate perturbation always wins.
    """
    config = scale_config(scale)
    if artifact.config_overrides:
        config = config.replace(**dict(artifact.config_overrides))
    if overrides:
        config = config.replace(**dict(overrides))
    return config


def run_artifact(
    artifact: Artifact,
    scale: str,
    seeds: Optional[Sequence[int]] = None,
    params: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    workers: Optional[int] = 1,
) -> Dict[str, List[Any]]:
    """Run one artifact's seed sweep; returns ``{metric: samples}``.

    ``params`` replaces the artifact's per-scale workload parameters
    (the reducer uses this to shrink work), ``overrides`` patches config
    fields (perturbations, topology shrinks).
    """
    if scale not in artifact.scales and params is None:
        raise ValueError(
            f"artifact {artifact.id!r} does not define scale {scale!r}; "
            f"have {sorted(artifact.scales)}"
        )
    sweep_seeds = list(seeds if seeds is not None else artifact.seeds)
    if not sweep_seeds:
        raise ValueError("artifact sweep needs at least one seed")
    base = artifact_config(artifact, scale, overrides)
    job_params = dict(
        params if params is not None else artifact.scales[scale]
    )
    jobs = [
        SimJob(fn=artifact.fn, config=base, params=job_params, seed=seed)
        for seed in sweep_seeds
    ]
    outcome = run_supervised(jobs, workers=workers, cache=cache)
    if outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    rows = outcome.results
    samples: Dict[str, List[Any]] = {}
    for row in rows:
        if not isinstance(row, dict):
            raise TypeError(
                f"artifact workload {artifact.fn} returned {type(row)!r}, "
                "expected a metric dict"
            )
        for name, value in row.items():
            if name in ("telemetry", "metrics"):
                continue
            samples.setdefault(name, []).append(value)
    return samples


@dataclass
class ArtifactRun:
    """Evaluated seed sweep of one artifact at one scale."""

    artifact: Artifact
    scale: str
    seeds: List[int]
    samples: Dict[str, List[Any]]
    expectation_results: List[ExpectationResult]
    #: None when not compared (a custom sweep, judged on expectations
    #: only) or when the snapshot is missing or unusable.
    drift_results: Optional[List[DriftResult]] = None
    #: Set when the snapshot is missing or unusable (config mismatch).
    golden_error: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def expectations_passed(self) -> bool:
        return all(r.ok for r in self.expectation_results)

    @property
    def drift_passed(self) -> bool:
        return self.drift_results is None or all(
            r.ok for r in self.drift_results
        )

    @property
    def passed(self) -> bool:
        return (
            self.expectations_passed
            and self.drift_passed
            and self.golden_error is None
        )

    def failed_expectations(self) -> List[ExpectationResult]:
        return [r for r in self.expectation_results if not r.ok]

    def report(self) -> str:
        lines = [
            f"artifact {self.artifact.id} [{self.scale}] "
            f"seeds={self.seeds}"
            + (f" overrides={self.overrides}" if self.overrides else "")
        ]
        lines += ["  " + r.line() for r in self.expectation_results]
        if self.golden_error:
            lines.append(f"  GOLDEN {self.golden_error}")
        elif self.drift_results is not None:
            lines += ["  " + r.line() for r in self.drift_results]
        else:
            lines.append("  GOLDEN not compared (expectations only)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "artifact": self.artifact.id,
            "scale": self.scale,
            "seeds": self.seeds,
            "passed": self.passed,
            "overrides": self.overrides,
            "expectations": [
                r.to_dict() for r in self.expectation_results
            ],
            "drift": (
                None if self.drift_results is None else [
                    {
                        "metric": r.metric,
                        "ok": r.ok,
                        "observed": r.observed,
                        "recorded": r.recorded,
                        "detail": r.detail,
                    }
                    for r in self.drift_results
                ]
            ),
            "golden_error": self.golden_error,
        }


def check_artifact(
    artifact_id: str,
    scale: str,
    seeds: Optional[Sequence[int]] = None,
    params: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    workers: Optional[int] = 1,
    store: Optional[GoldenStore] = None,
    golden: bool = True,
) -> ArtifactRun:
    """Run, evaluate, and (optionally) drift-check one artifact."""
    artifact = get_artifact(artifact_id)
    sweep_seeds = list(seeds if seeds is not None else artifact.seeds)
    samples = run_artifact(
        artifact, scale, seeds=sweep_seeds, params=params,
        overrides=overrides, cache=cache, workers=workers,
    )
    run = ArtifactRun(
        artifact=artifact,
        scale=scale,
        seeds=sweep_seeds,
        samples=samples,
        expectation_results=[
            exp.evaluate(samples) for exp in artifact.expectations
        ],
        overrides=dict(overrides or {}),
    )
    if golden:
        store = store or GoldenStore()
        config = artifact_config(artifact, scale, overrides)
        try:
            run.drift_results = store.check(
                artifact_id, scale, config, samples
            )
        except (MissingGoldenError, StaleGoldenError) as exc:
            run.golden_error = str(exc)
    return run


def record_artifact(
    artifact_id: str,
    scale: str,
    cache: Optional[ResultCache] = None,
    workers: Optional[int] = 1,
    store: Optional[GoldenStore] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> str:
    """Run one artifact's sweep and write its golden snapshot."""
    artifact = get_artifact(artifact_id)
    samples = run_artifact(artifact, scale, cache=cache, workers=workers)
    store = store or GoldenStore()
    path = store.record(
        artifact_id, scale,
        artifact_config(artifact, scale),
        artifact.seeds, samples, meta=meta,
    )
    return str(path)

