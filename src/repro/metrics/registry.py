"""Process-wide registry of labeled counters, gauges, samplers, histograms.

The metrics plane is the *per-process* complement to the per-device event
telemetry of :mod:`repro.telemetry`: where telemetry records what one
simulated GPU did (flit lifecycles, link timelines), the metrics registry
records what the *service* around it did — jobs launched, retries, cache
hits, engine self-profiling samples — and folds those numbers across
worker shards the same way ``Sampler.merge`` already folds latency
summaries.

Design points:

* **Labeled families.**  A metric name owns one *kind* (counter / gauge /
  sampler / histogram) and a set of series keyed by sorted label items,
  mirroring the Prometheus data model.  Re-registering a name with a
  different kind is a hard error — silent kind drift is how dashboards
  rot.
* **Handles, not string lookups, on hot paths.**  ``registry.counter(...)``
  returns a :class:`Counter` handle whose ``inc`` is one attribute
  bump; callers resolve the handle once and keep it (the engine
  profiler pre-resolves every handle it touches).
* **Mergeable manifests.**  ``to_manifest`` emits a JSON-safe dict;
  ``merge_manifest`` folds one back in (counters sum, samplers and
  histograms merge, gauges keep the max).  That makes the manifest the
  wire format between supervised worker shards and the parent sweep.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..sim.stats import Histogram, Sampler

#: Prometheus-compatible metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The metric kinds a family may carry.
KINDS = ("counter", "gauge", "sampler", "histogram")

LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonic counter handle; ``inc`` is hot-path safe."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Point-in-time level; merges across shards by keeping the max."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def high_water(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def reset(self) -> None:
        self.value = 0.0


class _Family:
    """One metric name: a kind, help text, and label-keyed series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series: Dict[LabelKey, Any] = {}


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Labeled metric families with mergeable JSON manifests."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registration / handle lookup.
    # ------------------------------------------------------------------ #
    def _series(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Mapping[str, Any],
        factory,
    ) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}"
                )
            elif help_text and not family.help:
                family.help = help_text
            metric = family.series.get(key)
            if metric is None:
                metric = factory()
                family.series[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._series(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._series(name, "gauge", help, labels, Gauge)

    def sampler(self, name: str, help: str = "", **labels: Any) -> Sampler:
        return self._series(name, "sampler", help, labels, Sampler)

    def histogram(
        self,
        name: str,
        help: str = "",
        bucket_width: int = 16,
        num_buckets: int = 256,
        **labels: Any,
    ) -> Histogram:
        return self._series(
            name, "histogram", help, labels,
            lambda: Histogram(bucket_width, num_buckets),
        )

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def series(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, metric)`` pairs of one family, label-sorted."""
        family = self._families.get(name)
        if family is None:
            return []
        return [
            (dict(key), family.series[key])
            for key in sorted(family.series)
        ]

    def value(self, name: str, **labels: Any) -> Any:
        """The raw metric object for a series, or ``None``."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.series.get(_label_key(labels))

    def __len__(self) -> int:
        return len(self._families)

    # ------------------------------------------------------------------ #
    # Manifests and merging.
    # ------------------------------------------------------------------ #
    def to_manifest(self) -> Dict[str, Any]:
        """JSON-safe ``{"metrics": {name: family}}`` snapshot."""
        metrics: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.series):
                metric = family.series[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "counter":
                    entry["value"] = metric.value
                elif family.kind == "gauge":
                    entry["value"] = metric.value
                elif family.kind == "sampler":
                    entry["summary"] = metric.summary()
                else:  # histogram
                    entry["histogram"] = metric.state_dict()
                series.append(entry)
            metrics[name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return {"metrics": metrics}

    def merge_manifest(self, manifest: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`to_manifest` payload into this registry."""
        for name, family in (manifest.get("metrics") or {}).items():
            kind = family.get("kind")
            if kind not in KINDS:
                raise ValueError(
                    f"manifest metric {name!r} has unknown kind {kind!r}"
                )
            help_text = family.get("help", "")
            for entry in family.get("series", ()):
                labels = entry.get("labels") or {}
                if kind == "counter":
                    self.counter(name, help_text, **labels).inc(
                        int(entry.get("value", 0))
                    )
                elif kind == "gauge":
                    self.gauge(name, help_text, **labels).high_water(
                        float(entry.get("value", 0.0))
                    )
                elif kind == "sampler":
                    self.sampler(name, help_text, **labels).merge(
                        Sampler.from_summary(entry.get("summary") or {})
                    )
                else:  # histogram
                    state = entry.get("histogram") or {}
                    self.histogram(
                        name, help_text,
                        bucket_width=int(state.get("bucket_width", 16)),
                        num_buckets=int(state.get("num_buckets", 256)),
                        **labels,
                    ).merge(Histogram.from_state(state))
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's live metrics into this one."""
        return self.merge_manifest(other.to_manifest())

    def reset(self) -> None:
        """Zero every series (families and labels are retained)."""
        for family in self._families.values():
            for metric in family.series.values():
                metric.reset()

    def clear(self) -> None:
        """Drop every family (used between isolated test runs)."""
        with self._lock:
            self._families.clear()


# ---------------------------------------------------------------------- #
# Process-default registry.
# ---------------------------------------------------------------------- #
_default = MetricsRegistry()
_scoped = threading.local()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (or the innermost scoped override)."""
    stack = getattr(_scoped, "stack", None)
    if stack:
        return stack[-1]
    return _default


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily swap :func:`get_registry` to an isolated registry.

    Tests and one-shot CLI commands use this so instrumented library code
    (which always writes through ``get_registry()``) lands in a registry
    the caller owns rather than the process-wide one.
    """
    registry = registry if registry is not None else MetricsRegistry()
    stack = getattr(_scoped, "stack", None)
    if stack is None:
        stack = _scoped.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()
