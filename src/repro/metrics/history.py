"""Bench-trajectory tracking: append-only history + regression detection.

``BENCH_engine.json`` is overwritten on every ``python -m repro bench``
run, so the performance trajectory the ROADMAP tracks (12.8x naive,
1.31x active at full Volta) had no memory.  This module gives it one:

* :func:`bench_record` distills a bench report into one JSON-safe
  record — config hash (scale + bits + workload set), per-workload
  per-strategy throughputs, and a host fingerprint;
* :func:`append_history` appends it to ``BENCH_history.jsonl``
  (append-only JSONL whose loader skips a torn final line);
* :func:`check_history` compares a fresh report against the **trailing
  median** of comparable records (same config hash *and* same host —
  cross-machine numbers are not comparable) and flags any throughput
  that dropped more than ``threshold`` (default 20%).

The check is advisory by design: ``python -m repro bench`` always prints
it, and only ``--check-history`` turns a regression into a non-zero
exit (CI wires it as a warn-only step because shared runners are noisy).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..runner.cache import canonical_json

#: Default history file, next to BENCH_engine.json in the working dir.
HISTORY_FILE = "BENCH_history.jsonl"

#: Trailing records (per config+host) the median is taken over.
DEFAULT_WINDOW = 8

#: Fractional throughput drop that counts as a regression.
DEFAULT_THRESHOLD = 0.20

_STRATEGIES = ("naive", "active")


def host_fingerprint() -> Dict[str, Any]:
    """Coarse host identity: throughputs only compare on like hardware."""
    return {
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 0,
    }


def _digest(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode()
    ).hexdigest()[:12]


def bench_config_hash(report: Mapping[str, Any]) -> str:
    """Hash of the bench shape: scale, bit budget, workload set."""
    return _digest({
        "scales": report.get("scales", {}),
        "num_bits": report.get("num_bits"),
        "workloads": sorted(report.get("workloads", {})),
    })


def _throughputs(report: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
    """``{workload: {strategy: cycles_per_s}}`` from a bench report."""
    out: Dict[str, Dict[str, float]] = {}
    for name, entry in (report.get("workloads") or {}).items():
        per_strategy = {
            strategy: float(entry[key])
            for strategy in _STRATEGIES
            if (key := f"{strategy}_cycles_per_s") in entry
        }
        if per_strategy:
            out[name] = per_strategy
    return out


def bench_record(
    report: Mapping[str, Any],
    scale: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """One history record for a completed bench report."""
    host = host_fingerprint()
    return {
        "ts": round(
            time.time() if timestamp is None else timestamp, 3
        ),
        "scale": scale,
        "config_hash": bench_config_hash(report),
        "host": host,
        "host_key": _digest(host),
        "num_bits": report.get("num_bits"),
        "throughputs": _throughputs(report),
        "min_speedup": report.get("min_speedup"),
    }


def append_history(
    record: Mapping[str, Any],
    path: Union[str, Path] = HISTORY_FILE,
) -> Path:
    """Append one record to the JSONL history (created on first use)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return target


def load_history(
    path: Union[str, Path] = HISTORY_FILE,
) -> List[Dict[str, Any]]:
    """All records in file order; a torn final line is tolerated."""
    target = Path(path)
    if not target.is_file():
        return []
    records: List[Dict[str, Any]] = []
    with open(target, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed run
            if isinstance(entry, dict):
                records.append(entry)
    return records


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class Regression:
    """One throughput that fell below the trailing-median floor."""

    workload: str
    strategy: str
    current: float
    median: float
    drop_frac: float

    def line(self) -> str:
        return (
            f"REGRESSION {self.workload}/{self.strategy}: "
            f"{self.current:.1f} cycles/s is {self.drop_frac:.0%} below "
            f"the trailing median {self.median:.1f}"
        )


@dataclass
class HistoryCheck:
    """Outcome of comparing one bench report against its history.

    The two degraded comparison modes are explicit rather than silent:

    * ``short_history`` — fewer comparable prior runs than the requested
      ``window``.  The floor check still ran, but its median is noisier
      than a full window's; callers deciding to gate on the result can
      tell the difference.
    * ``zero_median`` — ``workload/strategy`` series whose trailing
      median was ``<= 0`` (corrupt or placeholder records).  A
      nonpositive median cannot form a floor, so these series are
      *excluded* from the regression check and named here instead of
      passing silently.
    """

    baseline_runs: int
    compared: int
    regressions: List[Regression] = field(default_factory=list)
    skipped_reason: str = ""
    #: The window the caller asked for (trailing records per series).
    window: int = DEFAULT_WINDOW
    #: Series (``"workload/strategy"``) skipped for nonpositive medians.
    zero_median: List[str] = field(default_factory=list)

    @property
    def short_history(self) -> bool:
        """True when the baseline had fewer records than the window."""
        return 0 < self.baseline_runs < self.window

    @property
    def ok(self) -> bool:
        return not self.regressions

    def lines(self) -> List[str]:
        if self.skipped_reason:
            return [f"bench-history: skipped ({self.skipped_reason})"]
        out = [
            f"bench-history: {self.compared} throughputs vs "
            f"{self.baseline_runs} comparable prior runs"
        ]
        if self.short_history:
            out.append(
                f"bench-history: short history "
                f"({self.baseline_runs}/{self.window} records) — "
                f"median floor is provisional"
            )
        for series in self.zero_median:
            out.append(
                f"bench-history: {series} has a nonpositive trailing "
                f"median — series skipped, check its history records"
            )
        out.extend(r.line() for r in self.regressions)
        if not self.regressions and self.compared:
            out.append("bench-history: no regression beyond threshold")
        return out


def check_history(
    report: Mapping[str, Any],
    path: Union[str, Path] = HISTORY_FILE,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    scale: Optional[str] = None,
) -> HistoryCheck:
    """Compare ``report`` against the trailing median of its history.

    Only records with the same bench-config hash *and* the same host
    fingerprint are comparable.  Call this *before* appending the fresh
    record so the baseline never includes the run under test.

    Degraded baselines are reported, never silently absorbed (see
    :class:`HistoryCheck`): with no comparable records at all the check
    is skipped with ``skipped_reason`` set; with fewer records than
    ``window`` it runs and sets :attr:`HistoryCheck.short_history`; a
    series whose trailing median is ``<= 0`` cannot form a floor and is
    listed in :attr:`HistoryCheck.zero_median` instead of passing.
    """
    current = bench_record(report, scale=scale)
    history = load_history(path)
    baseline = [
        entry for entry in history
        if entry.get("config_hash") == current["config_hash"]
        and entry.get("host_key") == current["host_key"]
    ][-window:]
    if not baseline:
        return HistoryCheck(
            baseline_runs=0, compared=0, window=window,
            skipped_reason=(
                "no comparable prior runs (config or host changed, or "
                "history is empty)"
            ),
        )
    check = HistoryCheck(
        baseline_runs=len(baseline), compared=0, window=window
    )
    for workload, per_strategy in current["throughputs"].items():
        for strategy, value in per_strategy.items():
            prior = [
                float(entry["throughputs"][workload][strategy])
                for entry in baseline
                if strategy in (
                    entry.get("throughputs", {}).get(workload) or {}
                )
            ]
            if not prior:
                continue
            median = _median(prior)
            if median <= 0:
                # A nonpositive floor would "pass" any value, including
                # a real regression — name the series instead.
                check.zero_median.append(f"{workload}/{strategy}")
                continue
            check.compared += 1
            if value < median * (1.0 - threshold):
                check.regressions.append(Regression(
                    workload=workload,
                    strategy=strategy,
                    current=value,
                    median=median,
                    drop_frac=1.0 - value / median,
                ))
    return check
