"""Committed golden-metric snapshots and statistical drift checking.

A *golden* is the recorded seed-sweep of one artifact's metrics at one
scale, written as JSON under ``tests/golden/<scale>/<artifact>.json`` and
committed to the repository.  ``python -m repro golden check`` re-runs
the sweep and compares fresh samples against the snapshot:

* the comparison is keyed by a **config hash** (the full GpuConfig the
  sweep ran on, seed normalised out) so a changed default silently
  invalidates the golden instead of producing a misleading diff;
* drift is judged statistically: the fresh and golden means may differ
  by at most the Welch two-sample margin plus a small relative slack,
  so a cycle-exact refactor passes bit-identically while a contention
  regression fails with the offending metric named.

The snapshot stores raw per-seed samples (not just summaries) so future
sessions can re-derive any statistic without re-simulating.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..config import GpuConfig
from ..runner.cache import canonical_json
from .stats import mean, pointwise_means, sample_std, welch_margin

#: Default directory of committed goldens, relative to the repo root.
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Environment variable overriding the golden directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: Relative drift allowed on top of the statistical margin; absorbs
#: sub-percent calibration shifts a refactor may legitimately introduce.
DEFAULT_REL_SLACK = 0.02


def config_hash(config: GpuConfig) -> str:
    """Hash of the full config with the seed normalised out.

    Seeds vary across the sweep by design; everything else in the config
    must match the snapshot for a comparison to be meaningful.
    """
    payload = canonical_json(config.replace(seed=0))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DriftResult:
    """Outcome of comparing one metric against its golden snapshot."""

    metric: str
    ok: bool
    observed: str
    recorded: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "DRIFT"
        text = (
            f"{status} {self.metric}: now {self.observed}, "
            f"golden {self.recorded}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


def _default_root() -> Path:
    """The golden directory a command without ``--golden-dir`` uses."""
    return Path(os.environ.get(GOLDEN_DIR_ENV) or DEFAULT_GOLDEN_DIR)


class StaleGoldenError(RuntimeError):
    """The snapshot was recorded under a different configuration."""


class MissingGoldenError(FileNotFoundError):
    """No snapshot exists for the requested artifact and scale."""


def _summarise(samples: Sequence[Any]) -> Dict[str, Any]:
    if samples and isinstance(samples[0], (list, tuple)):
        series = [list(map(float, s)) for s in samples]
        return {
            "series": True,
            "samples": series,
            "mean": pointwise_means(series),
            "n": len(series),
        }
    values = [float(v) for v in samples]
    return {
        "series": False,
        "samples": values,
        "mean": mean(values),
        "std": sample_std(values),
        "n": len(values),
    }


class GoldenStore:
    """Load, record, and drift-check per-artifact metric snapshots."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = _default_root()
        self.root = Path(root)

    def _command(self, scale: str, action: str) -> str:
        """The CLI command that runs ``golden <action>`` on this store.

        It names the store's root with ``--golden-dir`` unless that root
        is where the command would write without the flag.
        """
        command = f"python -m repro --scale {scale} golden {action}"
        if self.root != _default_root():
            command += f" --golden-dir {shlex.quote(str(self.root))}"
        return command

    def path(self, artifact_id: str, scale: str) -> Path:
        return self.root / scale / f"{artifact_id}.json"

    def exists(self, artifact_id: str, scale: str) -> bool:
        return self.path(artifact_id, scale).is_file()

    def load(self, artifact_id: str, scale: str) -> Dict[str, Any]:
        path = self.path(artifact_id, scale)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise MissingGoldenError(
                f"no golden for {artifact_id!r} at scale {scale!r} "
                f"(expected {path}); record one with "
                f"`{self._command(scale, 'record')}`"
            ) from None

    def record(
        self,
        artifact_id: str,
        scale: str,
        config: GpuConfig,
        seeds: Sequence[int],
        samples: Mapping[str, Sequence[Any]],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Atomically write the snapshot for one artifact and scale."""
        entry = {
            "artifact": artifact_id,
            "scale": scale,
            "config_hash": config_hash(config),
            "seeds": list(seeds),
            "metrics": {
                name: _summarise(values) for name, values in samples.items()
            },
            "meta": dict(meta or {}),
        }
        path = self.path(artifact_id, scale)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------ #
    # Drift checking.
    # ------------------------------------------------------------------ #
    def check(
        self,
        artifact_id: str,
        scale: str,
        config: GpuConfig,
        samples: Mapping[str, Sequence[Any]],
        confidence: float = 0.95,
        rel_slack: float = DEFAULT_REL_SLACK,
    ) -> List[DriftResult]:
        """Compare fresh ``samples`` against the committed snapshot.

        Raises :class:`MissingGoldenError` when no snapshot exists and
        :class:`StaleGoldenError` when the snapshot was recorded under a
        different configuration (so the numbers are incomparable).
        """
        entry = self.load(artifact_id, scale)
        recorded_hash = entry.get("config_hash")
        fresh_hash = config_hash(config)
        if recorded_hash != fresh_hash:
            raise StaleGoldenError(
                f"golden for {artifact_id!r}/{scale!r} was recorded under "
                f"config {recorded_hash} but the current config hashes to "
                f"{fresh_hash}; re-record with "
                f"`{self._command(scale, 'update')}`"
            )
        results: List[DriftResult] = []
        golden_metrics = entry.get("metrics", {})
        for name in sorted(set(golden_metrics) | set(samples)):
            if name not in golden_metrics:
                results.append(DriftResult(
                    metric=name, ok=False,
                    observed="present", recorded="absent",
                    detail="metric not in golden; re-record",
                ))
                continue
            if name not in samples:
                results.append(DriftResult(
                    metric=name, ok=False,
                    observed="absent", recorded="present",
                    detail="metric vanished from the workload",
                ))
                continue
            results.append(self._check_metric(
                name, golden_metrics[name], samples[name],
                confidence, rel_slack,
            ))
        return results

    def _check_metric(
        self,
        name: str,
        golden: Mapping[str, Any],
        fresh: Sequence[Any],
        confidence: float,
        rel_slack: float,
    ) -> DriftResult:
        if golden.get("series"):
            return self._check_series(
                name, golden, fresh, confidence, rel_slack
            )
        golden_samples = [float(v) for v in golden["samples"]]
        fresh_samples = [float(v) for v in fresh]
        return self._compare(
            name, golden_samples, fresh_samples, confidence, rel_slack
        )

    def _check_series(
        self, name, golden, fresh, confidence, rel_slack
    ) -> DriftResult:
        golden_series = [list(map(float, s)) for s in golden["samples"]]
        fresh_series = [list(map(float, s)) for s in fresh]
        golden_len = len(golden_series[0]) if golden_series else 0
        fresh_len = len(fresh_series[0]) if fresh_series else 0
        if golden_len != fresh_len:
            return DriftResult(
                metric=name, ok=False,
                observed=f"series of {fresh_len}",
                recorded=f"series of {golden_len}",
                detail="series length changed",
            )
        bad: List[str] = []
        for index in range(golden_len):
            point = self._compare(
                f"{name}[{index}]",
                [s[index] for s in golden_series],
                [s[index] for s in fresh_series],
                confidence, rel_slack,
            )
            if not point.ok:
                bad.append(point.line())
        return DriftResult(
            metric=name,
            ok=not bad,
            observed=f"means {[round(v, 4) for v in pointwise_means(fresh_series)]}",
            recorded=f"means {[round(v, 4) for v in pointwise_means(golden_series)]}",
            detail="; ".join(bad),
        )

    def _compare(
        self, name, golden_samples, fresh_samples, confidence, rel_slack
    ) -> DriftResult:
        golden_mean = mean(golden_samples)
        fresh_mean = mean(fresh_samples)
        margin = welch_margin(golden_samples, fresh_samples, confidence)
        allowance = margin + rel_slack * abs(golden_mean) + 1e-9
        drift = abs(fresh_mean - golden_mean)
        return DriftResult(
            metric=name,
            ok=drift <= allowance,
            observed=f"{fresh_mean:.6g}",
            recorded=f"{golden_mean:.6g}",
            detail=(
                f"drift {drift:.4g} > allowed {allowance:.4g}"
                if drift > allowance else ""
            ),
        )
