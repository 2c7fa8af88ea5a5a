"""The per-device telemetry hub.

One :class:`Telemetry` object per :class:`~repro.gpu.device.GpuDevice`
(built only when ``GpuConfig.telemetry_enabled`` is set) owns the event
tracer, the utilization/occupancy timeline, the component-name registry
(trace events carry small integer component ids; the hub maps them back
to names at export time) and the record of engine fast-forward jumps —
which is what lets tests assert that no event ever carries a cycle the
engine skipped over.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sim.stats import StatsRegistry
from .collect import latency_summary
from .timeline import Timeline
from .tracer import Tracer

#: Cap on retained fast-forward spans (a span per idle gap; covert-channel
#: runs have one per guard slot, so this is generous).
MAX_FAST_FORWARDS = 65536


class Telemetry:
    """Tracer + timeline + component registry for one device."""

    def __init__(
        self,
        ring_capacity: int = 65536,
        epoch_cycles: int = 64,
    ) -> None:
        self.tracer = Tracer(ring_capacity)
        self.timeline = Timeline(epoch_cycles)
        #: Component id -> name (ids are dense, assigned by register()).
        self.component_names: List[str] = []
        #: (from_cycle, to_cycle) engine quiescence jumps, in order.
        self.fast_forwards: List[Tuple[int, int]] = []
        self._ff_dropped = 0

    @classmethod
    def from_config(cls, config) -> "Telemetry":
        return cls(
            ring_capacity=config.telemetry_ring_capacity,
            epoch_cycles=config.telemetry_epoch_cycles,
        )

    def register(self, name: str) -> int:
        """Assign a component id for ``name`` (used in trace events)."""
        self.component_names.append(name)
        return len(self.component_names) - 1

    def note_fast_forward(self, from_cycle: int, to_cycle: int) -> None:
        """Engine hook: the cycle counter jumped over a quiescent gap."""
        if len(self.fast_forwards) >= MAX_FAST_FORWARDS:
            self._ff_dropped += 1
            return
        self.fast_forwards.append((from_cycle, to_cycle))

    def finalize(self, cycle: int) -> None:
        """Flush partial-epoch occupancy state at the end of a run."""
        self.timeline.finalize(cycle)

    def reset(self) -> None:
        """Drop everything observed so far (wired to ``Engine.on_reset``).

        Component registrations survive — the same components re-emit
        under the same ids after the reset — so a run after an engine
        reset records exactly what a fresh device would.
        """
        self.tracer.clear()
        self.timeline.reset()
        self.fast_forwards.clear()
        self._ff_dropped = 0

    # ------------------------------------------------------------------ #
    # Manifest.
    # ------------------------------------------------------------------ #
    def manifest(
        self, stats: Optional[StatsRegistry] = None
    ) -> Dict[str, Any]:
        """JSON-safe summary of everything this hub observed.

        With a ``stats`` registry, merged round-trip latency summaries
        (sampler aggregates and histogram percentiles) are folded in.
        """
        links = {
            series.name: {
                "flits": series.total_flits,
                "epochs": len(series.flits),
                "peak_utilization": round(series.peak_utilization, 4),
            }
            for series in self.timeline.links
            if series.flits
        }
        busiest = sorted(
            (meter for meter in self.timeline.meters if meter.peak_flits),
            key=lambda meter: meter.peak_flits,
            reverse=True,
        )[:32]
        out: Dict[str, Any] = {
            "events": {
                "recorded": self.tracer.recorded,
                "buffered": len(self.tracer),
                "dropped": self.tracer.dropped,
                "ring_capacity": self.tracer.capacity,
            },
            "fast_forward": {
                "spans": len(self.fast_forwards) + self._ff_dropped,
                "recorded": len(self.fast_forwards),
                # Spans observed past MAX_FAST_FORWARDS are counted but
                # not retained; a non-zero value means per-span data
                # (the "cycles" sum) is a lower bound.
                "dropped": self._ff_dropped,
                "cycles": sum(to - frm for frm, to in self.fast_forwards),
            },
            "epoch_cycles": self.timeline.epoch_cycles,
            "links": links,
            "queues": {
                meter.name: {"peak_flits": meter.peak_flits}
                for meter in busiest
            },
        }
        if stats is not None:
            out.update(latency_summary(stats))
        return out
