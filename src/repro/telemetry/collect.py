"""Process-local device collector.

Experiment entry points (figure functions, runner workloads) build their
:class:`~repro.gpu.device.GpuDevice` instances internally and return only
numbers, which is right for reproducibility but leaves observers with no
handle on the devices' stats registries and telemetry hubs.  The
collector closes that gap without threading a parameter through every
experiment signature: ``GpuDevice.__init__`` calls :func:`note_device`,
and any caller that wants the devices wraps the experiment in
:func:`collecting`::

    with collecting() as frame:
        result = rw_contention_profile(config)
    manifest = frame.manifest()

Frames nest (a stack), are process-local (each runner worker process has
its own), and cost one truthiness check per device construction when
nobody is collecting.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..sim.stats import Histogram, Sampler, StatsRegistry

_frames: List["Collector"] = []


class Collector:
    """Devices constructed while this frame was on the stack."""

    def __init__(self) -> None:
        self.devices: List[Any] = []

    def hubs(self) -> List[Any]:
        """Telemetry hubs of collected devices, finalized for export."""
        hubs = []
        for device in self.devices:
            hub = getattr(device, "telemetry", None)
            if hub is not None:
                hub.finalize(device.engine.cycle)
                hubs.append(hub)
        return hubs

    def manifest(self) -> Optional[Dict[str, Any]]:
        """Merged JSON-safe metrics manifest across collected devices.

        Returns ``None`` when no device was seen, so callers (the runner)
        can skip attaching an empty section to pure-python job results.
        """
        if not self.devices:
            return None
        merged_latency = Sampler()
        per_device: List[Dict[str, Any]] = []
        for device in self.devices:
            summary = latency_summary(device.stats)
            merged_latency.merge(
                Sampler.from_summary(summary["read_latency"])
            )
            hub = getattr(device, "telemetry", None)
            if hub is not None:
                hub.finalize(device.engine.cycle)
                entry = hub.manifest(device.stats)
            else:
                entry = dict(summary)
            entry["cycles"] = device.engine.cycle
            per_device.append(entry)
        return {
            "devices": len(self.devices),
            "read_latency": merged_latency.summary(),
            "per_device": per_device,
        }

    def metrics(self) -> Optional[Dict[str, Any]]:
        """Merged engine-profile metrics across collected devices.

        Devices built with ``config.metrics_enabled`` carry an
        :class:`~repro.metrics.EngineProfiler`; their registries are
        folded into one metrics manifest (counters sum, samplers and
        histograms merge).  Returns ``None`` when no collected device
        was profiling, so results of unprofiled runs stay unchanged.
        """
        profiled = 0
        merged = None
        for device in self.devices:
            profiler = getattr(device, "profiler", None)
            if profiler is None:
                continue
            if merged is None:
                from ..metrics.registry import MetricsRegistry

                merged = MetricsRegistry()
            profiled += 1
            merged.merge(profiler.registry)
        if merged is None:
            return None
        return {"devices": profiled, **merged.to_manifest()}


@contextmanager
def collecting() -> Iterator[Collector]:
    """Collect every device constructed inside the ``with`` block."""
    frame = Collector()
    _frames.append(frame)
    try:
        yield frame
    finally:
        _frames.remove(frame)


def note_device(device: Any) -> None:
    """Called by ``GpuDevice.__init__``; no-op unless someone collects."""
    if _frames:
        for frame in _frames:
            frame.devices.append(device)


def latency_summary(stats: StatsRegistry) -> Dict[str, Any]:
    """Merged round-trip latency summary of one stats registry.

    Folds every per-SM ``*.read_latency`` sampler (and histogram, when
    present) into a single device-wide aggregate.
    """
    merged = Sampler()
    for name, sampler in stats.samplers.items():
        if name.endswith(".read_latency"):
            merged.merge(sampler)
    merged_hist: Optional[Histogram] = None
    for name, histogram in stats.histograms.items():
        if name.endswith(".read_latency") and histogram.count:
            if merged_hist is None:
                merged_hist = Histogram(
                    histogram.bucket_width, histogram.num_buckets
                )
            merged_hist.merge(histogram)
    return {
        "read_latency": merged.summary(),
        "read_latency_percentiles": (
            merged_hist.to_dict() if merged_hist is not None else None
        ),
    }
