"""Capacity-surface arithmetic over a completed iteration-count sweep.

The paper's Fig. 10 numbers are points on an ``iterations →
(bandwidth, error)`` curve.  :class:`CapacitySurface` pools completed
sweep rows per iteration count and answers a query count with a
:class:`Prediction`:

* :meth:`add` / :meth:`from_rows` ingest rows carrying ``iterations``,
  ``bandwidth_kbps`` and ``error_rate``, pooling repeated samples per
  count (seed sweeps);
* :meth:`predict` answers with the exact-point mean, a piecewise-linear
  interpolation between the bracketing counts, or the nearest end point
  outside the sampled range — each naming its ``source`` and its
  ``distance`` from the nearest sampled count, normalized by the sampled
  span.

Bandwidth against iteration count is a step curve, so an interpolated or
nearest answer is arithmetic, not a measurement: ``python -m repro
serve`` simulates every count it is asked about instead of predicting
it.  Query dispositions are counted in the :mod:`repro.metrics` registry
as ``surface_queries_total{result=exact|interpolated|nearest}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..metrics.registry import MetricsRegistry, get_registry

__all__ = ["CapacitySurface", "Prediction"]

#: ``surface_queries_total`` label values / ``Prediction.source`` values.
QUERY_SOURCES = ("exact", "interpolated", "nearest")


@dataclass(frozen=True)
class Prediction:
    """One answered capacity query."""

    bandwidth_kbps: float
    error_rate: float
    #: One of :data:`QUERY_SOURCES`.
    source: str
    #: Distance from the query to the nearest sampled count (0 for exact
    #: hits), over the sampled span (floor 1).
    distance: float
    #: Samples pooled at the supporting count(s).
    samples: int


class CapacitySurface:
    """(bandwidth, error) over swept iteration counts.

    Multiple rows at one count (a seed sweep) pool into per-count means —
    :meth:`predict` answers with the pooled mean, which is exactly how the
    golden harness aggregates its per-seed samples.
    """

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        #: iteration count -> list of (bandwidth, error) samples.
        self._points: Dict[float, List[Tuple[float, float]]] = {}
        registry = metrics if metrics is not None else get_registry()
        help_text = "Capacity-surface queries by answer source."
        self._m_queries = {
            source: registry.counter(
                "surface_queries_total", help_text, result=source
            )
            for source in QUERY_SOURCES
        }
        self._m_points = registry.gauge(
            "surface_points", "Distinct coordinates on the surface."
        )

    def add(self, row: Mapping[str, Any]) -> None:
        """Ingest one completed sweep row."""
        sample = (float(row["bandwidth_kbps"]), float(row["error_rate"]))
        self._points.setdefault(float(row["iterations"]), []).append(sample)
        self._m_points.set(len(self._points))

    @classmethod
    def from_rows(
        cls, rows: Iterable[Mapping[str, Any]], **kwargs: Any
    ) -> "CapacitySurface":
        surface = cls(**kwargs)
        for row in rows:
            surface.add(row)
        return surface

    def __len__(self) -> int:
        return len(self._points)

    def _mean(self, x: float) -> Tuple[float, float, int]:
        samples = self._points[x]
        n = len(samples)
        return (
            sum(s[0] for s in samples) / n,
            sum(s[1] for s in samples) / n,
            n,
        )

    def predict(
        self, params: Optional[Mapping[str, Any]] = None, **query: Any
    ) -> Prediction:
        """Answer one query count; see the module docstring.

        The query arrives either as a mapping naming ``iterations`` or as
        keyword arguments; other keys are ignored so a full result row
        can be passed straight through.
        """
        if not self._points:
            raise ValueError("cannot predict from an empty surface")
        merged: Dict[str, Any] = dict(params or {})
        merged.update(query)
        x = float(merged["iterations"])
        if x in self._points:
            bandwidth, error, n = self._mean(x)
            self._m_queries["exact"].inc()
            return Prediction(bandwidth, error, "exact", 0.0, n)

        xs = sorted(self._points)
        span = max(xs[-1] - xs[0], 1.0)
        distance = min(abs(x - c) for c in xs) / span
        below = max((v for v in xs if v < x), default=None)
        above = min((v for v in xs if v > x), default=None)
        if below is None or above is None:
            # Outside the sampled range: clamp to the end point.
            edge = xs[0] if below is None else xs[-1]
            bandwidth, error, n = self._mean(edge)
            prediction = Prediction(bandwidth, error, "nearest", distance, n)
        else:
            lo_bw, lo_err, lo_n = self._mean(below)
            hi_bw, hi_err, hi_n = self._mean(above)
            frac = (x - below) / (above - below)
            prediction = Prediction(
                lo_bw + frac * (hi_bw - lo_bw),
                lo_err + frac * (hi_err - lo_err),
                "interpolated", distance, lo_n + hi_n,
            )
        self._m_queries[prediction.source].inc()
        return prediction
