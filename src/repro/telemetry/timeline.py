"""Per-epoch link-utilization and queue-occupancy time series.

Time is divided into fixed *epochs* of ``epoch_cycles`` cycles.  Each NoC
link (a mux output or a crossbar output port) owns a :class:`LinkSeries`
that accumulates flits moved per epoch; each :class:`~repro.noc.buffer.
PacketQueue` can carry a :class:`QueueMeter` that tracks its peak flit
occupancy within the current epoch.

Flit accounting is event-driven (the component that moves a flit calls
``LinkSeries.add`` with the current cycle), so idle epochs cost nothing
and the series stays sparse.  Occupancy peaks are flushed on epoch
boundaries by a :class:`TimelineProbe` — a regular engine component that
parks itself between boundaries via the active-set timer mechanism.
While every metered queue is empty and no peak is pending, a flush would
record nothing, so the probe parks with no timer at all until the next
:meth:`QueueMeter.note` wakes it: an idle stretch costs a telemetry-on
run at most one probe tick, not one per epoch.  Telemetry-off runs
never register a probe.

The probe reads model state and never mutates it, which is what keeps
seeded runs bit-identical with telemetry on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import FOREVER, Component


class LinkSeries:
    """Flits moved per epoch over one NoC link."""

    __slots__ = ("name", "width", "epoch_cycles", "flits")

    def __init__(self, name: str, width: int, epoch_cycles: int) -> None:
        self.name = name
        #: Flits per cycle the link can carry (utilization denominator).
        self.width = width
        self.epoch_cycles = epoch_cycles
        #: epoch index -> flits moved during that epoch (sparse).
        self.flits: Dict[int, int] = {}

    def add(self, cycle: int, n: int) -> None:
        epoch = cycle // self.epoch_cycles
        flits = self.flits
        flits[epoch] = flits.get(epoch, 0) + n

    @property
    def total_flits(self) -> int:
        return sum(self.flits.values())

    def utilization(self) -> Dict[int, float]:
        """epoch -> fraction of the link's flit capacity used."""
        denom = self.width * self.epoch_cycles
        return {epoch: n / denom for epoch, n in self.flits.items()}

    @property
    def peak_utilization(self) -> float:
        if not self.flits:
            return 0.0
        return max(self.flits.values()) / (self.width * self.epoch_cycles)

    def reset(self) -> None:
        """Drop all recorded epochs (component/engine reset)."""
        self.flits.clear()


class QueueMeter:
    """Peak flit occupancy of one queue, folded into per-epoch samples."""

    __slots__ = ("name", "queue", "peak", "series", "timeline")

    def __init__(
        self, name: str, queue, timeline: Optional["Timeline"] = None
    ) -> None:
        self.name = name
        self.queue = queue
        #: Running peak since the last epoch flush.
        self.peak = 0
        #: epoch index -> peak occupancy (flits) during that epoch; zero
        #: epochs are omitted to keep long idle runs cheap.
        self.series: Dict[int, int] = {}
        #: Owning timeline, whose parked probe a new peak wakes.
        self.timeline = timeline

    def note(self, occupancy: int) -> None:
        if occupancy > self.peak:
            self.peak = occupancy
            timeline = self.timeline
            if timeline is not None and timeline.probe_parked:
                timeline.wake_probe()

    def flush(self, epoch: int) -> None:
        if self.peak:
            previous = self.series.get(epoch, 0)
            if self.peak > previous:
                self.series[epoch] = self.peak
        # The standing occupancy seeds the next epoch's peak, so a queue
        # that stays full without new pushes is still reported full.
        self.peak = self.queue.used_flits

    def note_cleared(self) -> None:
        """The queue was cleared: the standing peak baseline is gone.

        Called by :meth:`~repro.noc.buffer.PacketQueue.clear`.  A clear
        discards the queued packets, so carrying the pre-clear peak into
        the next flush would report occupancy that no longer exists.
        """
        self.peak = self.queue.used_flits

    def reset(self) -> None:
        """Forget all recorded epochs and re-seed from live occupancy."""
        self.series.clear()
        self.peak = self.queue.used_flits

    @property
    def peak_flits(self) -> int:
        current = max(self.series.values()) if self.series else 0
        return max(current, self.peak)


class Timeline:
    """All link series and queue meters of one device."""

    def __init__(self, epoch_cycles: int = 64) -> None:
        if epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        self.epoch_cycles = epoch_cycles
        self.links: List[LinkSeries] = []
        self.meters: List[QueueMeter] = []
        #: The probe flushing this timeline (set by :class:`TimelineProbe`).
        self.probe: Optional["TimelineProbe"] = None
        #: True while the probe is parked with no timer; a meter's next
        #: new peak wakes it.
        self.probe_parked = False

    def register_link(self, name: str, width: int) -> LinkSeries:
        series = LinkSeries(name, max(1, width), self.epoch_cycles)
        self.links.append(series)
        return series

    def register_queue(self, queue) -> QueueMeter:
        """Attach a meter to ``queue`` (sets ``queue.meter``)."""
        meter = QueueMeter(queue.name, queue, self)
        queue.meter = meter
        self.meters.append(meter)
        return meter

    def flush(self, epoch: int) -> bool:
        """Flush every meter into ``epoch``; True if a peak still stands.

        After a flush each meter's peak is its queue's standing
        occupancy, so False means every metered queue is empty.
        """
        pending = False
        for meter in self.meters:
            meter.flush(epoch)
            if meter.peak:
                pending = True
        return pending

    def wake_probe(self) -> None:
        """A meter saw a new peak while the probe was parked."""
        self.probe_parked = False
        self.probe.wake()

    def finalize(self, cycle: int) -> None:
        """Flush the partial epoch at the end of a run (idempotent)."""
        self.flush(cycle // self.epoch_cycles)

    def reset(self) -> None:
        """Clear every link series and queue meter (engine reset)."""
        for series in self.links:
            series.reset()
        for meter in self.meters:
            meter.reset()


class TimelineProbe(Component):
    """Engine component that flushes occupancy peaks on epoch boundaries.

    Under the naive engine it checks every tick and flushes at every
    cycle ``k * epoch_cycles``, recording the epoch that just ended.
    Under the active engine it sleeps on a timer to the next boundary
    while a peak is pending, and parks with no timer once a flush leaves
    every metered queue empty: the boundaries it then sleeps through
    would each flush nothing.  The first new peak wakes it
    (:meth:`Timeline.wake_probe`), mid-epoch or on a boundary, and it
    resumes flushing from the boundary that follows.  Purely
    observational: reads queue occupancies, mutates no model state.
    """

    name = "telemetry.probe"
    observer = True

    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline
        timeline.probe = self
        self._next_flush = timeline.epoch_cycles

    def tick(self, cycle: int) -> None:
        if cycle >= self._next_flush:
            epoch_cycles = self.timeline.epoch_cycles
            self._next_flush = (cycle // epoch_cycles + 1) * epoch_cycles
            # A wake after parking can land mid-epoch; the boundaries
            # slept through had nothing to flush.  A flush that leaves
            # every metered queue empty parks the probe with no timer.
            if cycle % epoch_cycles == 0 and not self.timeline.flush(
                cycle // epoch_cycles - 1
            ):
                self.timeline.probe_parked = True
                self._until = FOREVER
                return
        self._until = self._next_flush

    def reset(self) -> None:
        self._next_flush = self.timeline.epoch_cycles
        self.timeline.probe_parked = False
