"""Sampled self-profiling of the engine hot loop.

The profiler is a *passive observer*: it reads scheduler state, never
mutates it, so enabling it keeps simulation results bit-identical (the
lockstep oracle runs with it on).  Cost control is by sampling — the
active-set size is recorded only every ``interval`` busy cycles (one
integer compare per cycle when enabled, a single ``is not None`` branch
when disabled), while the event-shaped signal (fast-forward spans) is
recorded at its natural, already-rare call site.

Everything lands in a :class:`MetricsRegistry` labeled by engine
strategy, so profiles from different strategies or worker shards merge
natively through the metrics manifest.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import MetricsRegistry

#: Default sampling stride for the per-cycle signals (engine cycles).
DEFAULT_INTERVAL = 64


class EngineProfiler:
    """Pre-resolved metric handles for the engine's hot-loop signals.

    One profiler instance per device, fed by its engine's hot loop;
    handles are resolved once at construction so the hot path touches
    plain attributes only.
    """

    __slots__ = (
        "interval", "next_sample", "registry",
        "_active", "_ff_spans", "_samples", "_ff_count",
    )

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
        strategy: str = "active",
        device: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("profiler interval must be positive")
        self.interval = interval
        self.next_sample = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        labels = {"strategy": strategy}
        if device is not None:
            # Multi-GPU systems profile per device; standalone devices
            # keep the historical single-label series names.
            labels["device"] = str(device)
        self._active = self.registry.sampler(
            "engine_active_set_size",
            "Scheduled components per busy cycle (sampled)", **labels,
        )
        self._ff_spans = self.registry.histogram(
            "engine_fast_forward_span_cycles",
            "Idle spans skipped by fast-forward, in cycles",
            bucket_width=64, num_buckets=128, **labels,
        )
        self._samples = self.registry.counter(
            "engine_profile_samples_total",
            "Active-set size samples taken", **labels,
        )
        self._ff_count = self.registry.counter(
            "engine_fast_forwards_total",
            "Idle fast-forward jumps taken", **labels,
        )

    # ------------------------------------------------------------------ #
    # Hot-loop hooks (all observation, no mutation).
    # ------------------------------------------------------------------ #
    def sample(self, cycle: int, num_active: int) -> None:
        """Record one active-set size sample; rearm the stride."""
        self.next_sample = cycle + self.interval
        self._samples.inc()
        self._active.add(num_active)

    def note_fast_forward(self, span: int) -> None:
        self._ff_count.inc()
        self._ff_spans.add(span)

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero all series (``Engine.reset`` resets observability)."""
        self.next_sample = 0
        self.registry.reset()

    def manifest(self) -> Dict[str, Any]:
        """JSON-safe metrics manifest (mergeable across shards)."""
        return self.registry.to_manifest()
