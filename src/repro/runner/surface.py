"""Capacity-surface query layer over completed sweeps.

The paper's headline numbers (Fig. 10 bandwidth/error, Table 2 capacity)
are points on a ``config → (bandwidth, error)`` surface.  Once a sweep
has filled the artifact store, re-simulating to answer "what would the
channel do at N iterations?" is wasted compute — the answer is an
interpolation over points already paid for.  :class:`CapacitySurface`
is that read path:

* :meth:`add` / :meth:`from_rows` ingest completed sweep rows keyed by
  the swept parameters (the *axes*, e.g. ``("iterations",)``), pooling
  repeated samples per coordinate (seed sweeps);
* :meth:`predict` answers a query config with a
  :class:`Prediction` — exact-point mean, piecewise-linear interpolation
  between bracketing grid points (inverse-distance weighting beyond one
  axis), or nearest-point fallback outside the sampled hull — each
  naming its ``source`` and its normalized ``distance`` from the nearest
  swept point, so a caller can judge how far the answer reaches;
* a **staleness bound**: the surface records the simulator
  code version it was built under and its build time; by default a
  query against a surface whose code version no longer matches the
  tree (or whose age exceeds ``max_age_s``) raises
  :class:`StaleSurfaceError` rather than serving numbers the current
  simulator might not reproduce.

Query dispositions are counted in the :mod:`repro.metrics` registry as
``surface_queries_total{result=exact|interpolated|nearest}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..metrics.registry import MetricsRegistry, get_registry
from .cache import code_version

__all__ = [
    "CapacitySurface",
    "Prediction",
    "StaleSurfaceError",
]

#: ``surface_queries_total`` label values / ``Prediction.source`` values.
QUERY_SOURCES = ("exact", "interpolated", "nearest")


class StaleSurfaceError(RuntimeError):
    """The surface no longer describes the current simulator/tree."""


@dataclass(frozen=True)
class Prediction:
    """One answered capacity query."""

    bandwidth_kbps: float
    error_rate: float
    #: One of :data:`QUERY_SOURCES`.
    source: str
    #: Normalized distance from the query to its nearest support point
    #: (0 for exact hits); the axis scale is each axis's sampled span.
    distance: float
    #: Samples pooled at the supporting coordinate(s).
    samples: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bandwidth_kbps": self.bandwidth_kbps,
            "error_rate": self.error_rate,
            "source": self.source,
            "distance": self.distance,
            "samples": self.samples,
        }


class CapacitySurface:
    """Interpolated (bandwidth, error) surface over swept parameters.

    ``axes`` names the varied parameters; every ingested row must carry
    them all plus the two metric keys.  Multiple rows at one coordinate
    (a seed sweep) pool into per-coordinate means — :meth:`predict`
    answers with the pooled mean, which is exactly how the golden
    harness aggregates its per-seed samples.
    """

    def __init__(
        self,
        axes: Sequence[str] = ("iterations",),
        *,
        bandwidth_key: str = "bandwidth_kbps",
        error_key: str = "error_rate",
        version: Optional[str] = None,
        built_at: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not axes:
            raise ValueError("a surface needs at least one axis")
        self.axes: Tuple[str, ...] = tuple(axes)
        self.bandwidth_key = bandwidth_key
        self.error_key = error_key
        #: Simulator tree hash the ingested sweeps ran under.
        self.version = version if version is not None else code_version()
        self.built_at = built_at if built_at is not None else time.time()
        #: coordinate -> list of (bandwidth, error) samples.
        self._points: Dict[Tuple[float, ...], List[Tuple[float, float]]] = {}
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

    # -- ingest -------------------------------------------------------- #
    def _coords(self, params: Mapping[str, Any]) -> Tuple[float, ...]:
        try:
            return tuple(float(params[axis]) for axis in self.axes)
        except KeyError as exc:
            raise KeyError(
                f"query/row is missing surface axis {exc.args[0]!r}; "
                f"axes are {self.axes}"
            ) from None

    def add(self, row: Mapping[str, Any]) -> None:
        """Ingest one completed sweep row (axes + metric keys)."""
        coords = self._coords(row)
        sample = (float(row[self.bandwidth_key]), float(row[self.error_key]))
        self._points.setdefault(coords, []).append(sample)
        self._m_points.set(len(self._points))

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        axes: Sequence[str] = ("iterations",),
        **kwargs: Any,
    ) -> "CapacitySurface":
        surface = cls(axes, **kwargs)
        for row in rows:
            surface.add(row)
        return surface

    def __len__(self) -> int:
        return len(self._points)

    @property
    def coordinates(self) -> List[Tuple[float, ...]]:
        return sorted(self._points)

    def _mean(self, coords: Tuple[float, ...]) -> Tuple[float, float, int]:
        samples = self._points[coords]
        n = len(samples)
        return (
            sum(s[0] for s in samples) / n,
            sum(s[1] for s in samples) / n,
            n,
        )

    # -- staleness ----------------------------------------------------- #
    @property
    def age_s(self) -> float:
        return max(0.0, time.time() - self.built_at)

    def check_fresh(self, max_age_s: Optional[float] = None) -> None:
        """Raise :class:`StaleSurfaceError` if this surface is stale."""
        current = code_version()
        if self.version != current:
            raise StaleSurfaceError(
                f"surface built under code version {self.version}, "
                f"tree is now {current}; re-sweep before serving"
            )
        if max_age_s is not None and self.age_s > max_age_s:
            raise StaleSurfaceError(
                f"surface is {self.age_s:.1f}s old, "
                f"staleness bound is {max_age_s:.1f}s"
            )

    # -- query --------------------------------------------------------- #
    def _spans(self) -> Tuple[float, ...]:
        """Per-axis normalization scale (sampled span, floor 1)."""
        coords = self.coordinates
        spans = []
        for axis_index in range(len(self.axes)):
            values = [c[axis_index] for c in coords]
            spans.append(max(max(values) - min(values), 1.0))
        return tuple(spans)

    def _distance(
        self,
        a: Tuple[float, ...],
        b: Tuple[float, ...],
        spans: Tuple[float, ...],
    ) -> float:
        return sum(
            ((x - y) / span) ** 2 for x, y, span in zip(a, b, spans)
        ) ** 0.5

    def predict(
        self,
        params: Optional[Mapping[str, Any]] = None,
        *,
        allow_stale: bool = False,
        max_age_s: Optional[float] = None,
        **query: Any,
    ) -> Prediction:
        """Answer one capacity query; see the module docstring.

        The query arrives either as a mapping (a config-like dict naming
        every axis) or as keyword arguments; unknown keys are ignored so
        a full result row or config dump can be passed straight through.
        """
        if not self._points:
            raise ValueError("cannot predict from an empty surface")
        if not allow_stale:
            self.check_fresh(max_age_s)
        merged: Dict[str, Any] = dict(params or {})
        merged.update(query)
        target = self._coords(merged)

        if target in self._points:
            bandwidth, error, n = self._mean(target)
            self._m_queries["exact"].inc()
            return Prediction(bandwidth, error, "exact", 0.0, n)

        coords = self.coordinates
        spans = self._spans()
        ranked = sorted(
            coords, key=lambda c: self._distance(target, c, spans)
        )
        nearest = ranked[0]
        nearest_distance = self._distance(target, nearest, spans)

        if len(self.axes) == 1:
            prediction = self._predict_1d(target, nearest_distance)
        else:
            prediction = self._predict_nd(
                target, ranked, spans, nearest_distance
            )
        self._m_queries[prediction.source].inc()
        return prediction

    def _predict_1d(
        self, target: Tuple[float, ...], nearest_distance: float
    ) -> Prediction:
        """Piecewise-linear along the single axis; nearest beyond ends."""
        x = target[0]
        xs = [c[0] for c in self.coordinates]
        below = max((v for v in xs if v < x), default=None)
        above = min((v for v in xs if v > x), default=None)
        if below is None or above is None:
            # Outside the sampled hull: clamp to the end point.
            edge = xs[0] if below is None else xs[-1]
            bandwidth, error, n = self._mean((edge,))
            return Prediction(
                bandwidth, error, "nearest", nearest_distance, n
            )
        lo_bw, lo_err, lo_n = self._mean((below,))
        hi_bw, hi_err, hi_n = self._mean((above,))
        frac = (x - below) / (above - below)
        return Prediction(
            lo_bw + frac * (hi_bw - lo_bw),
            lo_err + frac * (hi_err - lo_err),
            "interpolated", nearest_distance, lo_n + hi_n,
        )

    def _predict_nd(
        self,
        target: Tuple[float, ...],
        ranked: List[Tuple[float, ...]],
        spans: Tuple[float, ...],
        nearest_distance: float,
    ) -> Prediction:
        """Inverse-distance weighting over the nearest 2**dims points."""
        support = ranked[: max(2, 2 ** len(self.axes))]
        if len(support) < 2:
            bandwidth, error, n = self._mean(support[0])
            return Prediction(
                bandwidth, error, "nearest", nearest_distance, n
            )
        pooled = 0
        total = bw_acc = err_acc = 0.0
        for coords in support:
            distance = self._distance(target, coords, spans)
            weight = 1.0 / (distance * distance + 1e-12)
            bandwidth, error, n = self._mean(coords)
            bw_acc += weight * bandwidth
            err_acc += weight * error
            total += weight
            pooled += n
        return Prediction(
            bw_acc / total, err_acc / total,
            "interpolated", nearest_distance, pooled,
        )

