"""Capacity-surface tests: interpolation, distance, metrics.

:class:`CapacitySurface` turns swept (iterations → bandwidth/error)
points into a queryable model.  These tests pin the query semantics —
exact lookups pool repeated samples, off-grid queries interpolate
piecewise-linearly between brackets, out-of-range queries clamp to the
nearest point and report how far they reach — plus the query counters.
"""

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.runner.surface import CapacitySurface, Prediction


def _rows():
    return [
        {"iterations": 1, "bandwidth_kbps": 100.0, "error_rate": 0.30},
        {"iterations": 2, "bandwidth_kbps": 80.0, "error_rate": 0.10},
        {"iterations": 4, "bandwidth_kbps": 50.0, "error_rate": 0.02},
    ]


def _surface(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return CapacitySurface.from_rows(_rows(), **kwargs)


class TestQueries:
    def test_exact_point(self):
        pred = _surface().predict(iterations=2)
        assert isinstance(pred, Prediction)
        assert pred.source == "exact"
        assert pred.bandwidth_kbps == pytest.approx(80.0)
        assert pred.error_rate == pytest.approx(0.10)
        assert pred.distance == 0.0

    def test_exact_point_pools_repeated_samples(self):
        surface = CapacitySurface(metrics=MetricsRegistry())
        surface.add({"iterations": 1, "bandwidth_kbps": 100.0, "error_rate": 0.2})
        surface.add({"iterations": 1, "bandwidth_kbps": 110.0, "error_rate": 0.4})
        pred = surface.predict(iterations=1)
        assert pred.bandwidth_kbps == pytest.approx(105.0)
        assert pred.error_rate == pytest.approx(0.3)
        assert pred.samples == 2

    def test_linear_interpolation_between_brackets(self):
        pred = _surface().predict(iterations=3)
        assert pred.source == "interpolated"
        # Halfway between (2, 80) and (4, 50).
        assert pred.bandwidth_kbps == pytest.approx(65.0)
        assert pred.error_rate == pytest.approx(0.06)
        # One grid unit from (2, 80) over a sampled span of 3.
        assert pred.distance == pytest.approx(1 / 3)

    def test_nearest_clamp_beyond_hull(self):
        surface = _surface()
        low = surface.predict(iterations=0)
        high = surface.predict(iterations=9)
        assert low.source == "nearest"
        assert low.bandwidth_kbps == pytest.approx(100.0)
        assert high.source == "nearest"
        assert high.bandwidth_kbps == pytest.approx(50.0)
        assert high.distance == pytest.approx(5 / 3)

    def test_distance_grows_away_from_support(self):
        surface = _surface()
        exact = surface.predict(iterations=2)
        near = surface.predict(iterations=2.2)
        far = surface.predict(iterations=40)
        assert exact.distance < near.distance < far.distance
        assert "confidence" not in vars(far)

    def test_query_accepts_params_dict_and_kwargs(self):
        surface = _surface()
        assert (
            surface.predict({"iterations": 2}).bandwidth_kbps
            == surface.predict(iterations=2).bandwidth_kbps
        )

    def test_missing_axis_raises(self):
        with pytest.raises(KeyError):
            _surface().predict(warps=3)

    def test_empty_surface_raises(self):
        surface = CapacitySurface(metrics=MetricsRegistry())
        with pytest.raises(ValueError):
            surface.predict(iterations=1)

    def test_add_requires_axis_columns(self):
        surface = CapacitySurface(metrics=MetricsRegistry())
        with pytest.raises(KeyError):
            surface.add({"bandwidth_kbps": 1.0, "error_rate": 0.0})


class TestMetrics:
    def test_query_counters(self):
        registry = MetricsRegistry()
        surface = CapacitySurface.from_rows(_rows(), metrics=registry)
        surface.predict(iterations=2)
        surface.predict(iterations=3)
        surface.predict(iterations=99)
        manifest = registry.to_manifest()["metrics"]
        series = {
            s["labels"]["result"]: s["value"]
            for s in manifest["surface_queries_total"]["series"]
        }
        assert series["exact"] == 1
        assert series["interpolated"] == 1
        assert series["nearest"] == 1
        points = manifest["surface_points"]["series"][0]["value"]
        assert points == 3
