"""Lightweight statistics collection shared by all components.

A :class:`StatsRegistry` is a flat namespace of named counters, samplers
and fixed-bucket histograms.  Components increment counters as they work;
experiments snapshot and diff the registry before/after a run.  Keeping
this trivially simple (plain dicts) matters: stats updates happen on the
per-cycle hot path.

Latency distributions are recorded in :class:`Histogram` objects —
fixed-width buckets with O(num_buckets) percentile queries — instead of
retaining raw per-observation value lists, so a million-cycle run costs a
few hundred ints of memory rather than one float per observation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Optional


def _json_bound(value: float) -> Optional[float]:
    """A min/max bound made JSON-safe.

    ``float("inf")``/``-inf`` serialize as the non-RFC ``Infinity`` token,
    which strict JSON parsers reject; an unobserved bound is ``null``.
    """
    return value if math.isfinite(value) else None


class Sampler:
    """Accumulates scalar observations (e.g. latencies)."""

    __slots__ = ("count", "total", "minimum", "maximum", "values")

    def __init__(self, keep_values: bool = False) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: Raw observations; only retained when ``keep_values`` is set
        #: (the per-cycle hot path skips the append entirely otherwise).
        self.values: Optional[List[float]] = [] if keep_values else None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.values is not None:
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Sampler") -> "Sampler":
        """Fold ``other``'s observations into this sampler (in place).

        Used to aggregate latency statistics across devices and across
        the runner's worker processes, where each job returns a summary
        of its own registry.  Raw values are concatenated only when both
        sides retained them.
        """
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        if self.values is not None and other.values is not None:
            self.values.extend(other.values)
        elif other.values is not None and self.count == other.count:
            self.values = list(other.values)
        return self

    def summary(self) -> Dict[str, Any]:
        """JSON-safe {count, mean, min, max, total} summary."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": None, "max": None,
                    "total": 0.0}
        # Aggregate-only samplers (``from_summary`` of a summary that lost
        # its bounds) can carry ``count > 0`` with untouched ±inf bounds.
        return {
            "count": self.count,
            "mean": self.mean,
            "min": _json_bound(self.minimum),
            "max": _json_bound(self.maximum),
            "total": self.total,
        }

    @classmethod
    def from_summary(cls, data: Dict[str, Any]) -> "Sampler":
        """Rebuild an aggregate-only sampler from :meth:`summary` output."""
        sampler = cls()
        count = int(data.get("count", 0))
        if count:
            sampler.count = count
            sampler.total = float(
                data.get("total", data.get("mean", 0.0) * count)
            )
            if data.get("min") is not None:
                sampler.minimum = float(data["min"])
            if data.get("max") is not None:
                sampler.maximum = float(data["max"])
        return sampler

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        if self.values is not None:
            self.values.clear()


class Histogram:
    """Fixed-bucket histogram with percentile queries.

    Bucket ``i`` counts observations in ``[i*bucket_width,
    (i+1)*bucket_width)``; everything at or beyond the last edge lands in
    an overflow bucket (percentiles falling there report the observed
    maximum).  ``add`` is O(1) and allocation-free, so it is safe on the
    simulator's completion paths; percentile queries walk the bucket
    array once.
    """

    __slots__ = ("bucket_width", "num_buckets", "buckets", "overflow",
                 "count", "total", "minimum", "maximum")

    def __init__(self, bucket_width: int = 16, num_buckets: int = 256) -> None:
        if bucket_width <= 0 or num_buckets <= 0:
            raise ValueError("bucket_width and num_buckets must be positive")
        self.bucket_width = bucket_width
        self.num_buckets = num_buckets
        self.buckets = [0] * num_buckets
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = int(value) // self.bucket_width
        if 0 <= index < self.num_buckets:
            self.buckets[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), as a bucket upper edge.

        The upper edge is the conservative answer for latency budgets: at
        least ``p`` percent of observations were at or below it.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        if rank > self.count:
            rank = self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                return float((index + 1) * self.bucket_width)
        return float(self.maximum)  # rank falls in the overflow bucket

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (geometries must match)."""
        if (other.bucket_width != self.bucket_width
                or other.num_buckets != self.num_buckets):
            raise ValueError(
                f"histogram geometry mismatch: "
                f"{self.bucket_width}x{self.num_buckets} vs "
                f"{other.bucket_width}x{other.num_buckets}"
            )
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary with the headline percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": _json_bound(self.minimum),
            "max": _json_bound(self.maximum),
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "overflow": self.overflow,
            "bucket_width": self.bucket_width,
            "num_buckets": self.num_buckets,
        }

    def state_dict(self) -> Dict[str, Any]:
        """Full-fidelity JSON-safe state: buckets included.

        Unlike :meth:`to_dict` (a human-facing summary), the state dict
        round-trips through :meth:`from_state` without losing bucket
        counts, so histograms can be merged *after* JSON transport —
        the metrics plane ships these across worker-shard boundaries.
        """
        return {
            "bucket_width": self.bucket_width,
            "num_buckets": self.num_buckets,
            "buckets": list(self.buckets),
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": _json_bound(self.minimum),
            "max": _json_bound(self.maximum),
        }

    @classmethod
    def from_state(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`state_dict` output."""
        histogram = cls(
            bucket_width=int(data.get("bucket_width", 16)),
            num_buckets=int(data.get("num_buckets", 256)),
        )
        buckets = list(data.get("buckets") or ())
        if len(buckets) > histogram.num_buckets:
            raise ValueError(
                f"histogram state has {len(buckets)} buckets but declares "
                f"num_buckets={histogram.num_buckets}"
            )
        for index, bucket_count in enumerate(buckets):
            histogram.buckets[index] = int(bucket_count)
        histogram.overflow = int(data.get("overflow", 0))
        histogram.count = int(data.get("count", 0))
        histogram.total = float(data.get("total", 0.0))
        if data.get("min") is not None:
            histogram.minimum = float(data["min"])
        if data.get("max") is not None:
            histogram.maximum = float(data["max"])
        return histogram

    def reset(self) -> None:
        self.buckets = [0] * self.num_buckets
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")


class StatsRegistry:
    """Named counters, samplers and histograms with snapshot/diff support."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self.samplers: Dict[str, Sampler] = {}
        self.histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def sampler(self, name: str, keep_values: bool = False) -> Sampler:
        existing = self.samplers.get(name)
        if existing is None:
            existing = Sampler(keep_values=keep_values)
            self.samplers[name] = existing
        return existing

    def sample(self, name: str, value: float) -> None:
        self.sampler(name).add(value)

    def histogram(
        self, name: str, bucket_width: int = 16, num_buckets: int = 256
    ) -> Histogram:
        existing = self.histograms.get(name)
        if existing is None:
            existing = Histogram(bucket_width, num_buckets)
            self.histograms[name] = existing
        return existing

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the counter map, plus sampler summaries.

        Non-empty samplers appear under the reserved ``"samplers"`` key as
        {count, mean, min, max, total} dicts, so experiment before/after
        snapshots no longer silently drop latency data.
        """
        snap: Dict[str, Any] = dict(self.counters)
        if self.samplers:
            summaries = {
                name: sampler.summary()
                for name, sampler in self.samplers.items()
                if sampler.count
            }
            if summaries:
                snap["samplers"] = summaries
        return snap

    def diff(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Deltas since ``before`` (a prior :meth:`snapshot`).

        Counter deltas keep the historical flat shape; samplers that
        gained observations since ``before`` appear under ``"samplers"``
        with the *interval's* count and mean (min/max are lifetime values
        — a running min cannot be un-merged).
        """
        out: Dict[str, Any] = {
            key: value - before.get(key, 0)
            for key, value in self.counters.items()
            if value != before.get(key, 0)
        }
        before_samplers = before.get("samplers") or {}
        sampler_diffs: Dict[str, Any] = {}
        for name, sampler in self.samplers.items():
            if not sampler.count:
                continue
            prior = before_samplers.get(name)
            prior_count = prior["count"] if prior else 0
            delta_count = sampler.count - prior_count
            if not delta_count:
                continue
            prior_total = prior.get("total", 0.0) if prior else 0.0
            delta_total = sampler.total - prior_total
            sampler_diffs[name] = {
                "count": delta_count,
                "mean": delta_total / delta_count,
                "min": _json_bound(sampler.minimum),
                "max": _json_bound(sampler.maximum),
                "total": delta_total,
            }
        if sampler_diffs:
            out["samplers"] = sampler_diffs
        return out

    def reset(self) -> None:
        # Cleared in place, never replaced: hot-path components hold the
        # counter dict itself and bump it without calling :meth:`incr`.
        self.counters.clear()
        for sampler in self.samplers.values():
            sampler.reset()
        for histogram in self.histograms.values():
            histogram.reset()
