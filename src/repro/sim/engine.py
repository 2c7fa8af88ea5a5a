"""Cycle-driven simulation engine with active-set scheduling.

The whole GPU model is built from :class:`Component` objects that the
:class:`Engine` ticks once per cycle.  Each ``tick()`` produces the work
for that cycle: arbitrate, move flits, issue requests.  Components are
ticked in registration order, which the device builder arranges to
follow the pipeline direction (SMs first, then muxes, then the crossbar,
then L2/DRAM, then the reply path) so a flit can traverse one hop per
cycle without one-cycle bubbles being inserted artificially.

Scheduling strategies
---------------------

``strategy="naive"``
    The original flat loop: every component is ticked every cycle.  Kept as
    the reference implementation; the active strategy must be bit-identical
    to it (the equivalence tests in ``tests/test_engine_active.py`` enforce
    this on full covert-channel runs).

``strategy="active"`` (default)
    Active-set scheduling.  Components report, after each tick, whether
    they have anything left to do via :meth:`Component.idle_until`:

    * ``None`` — busy; keep ticking every cycle (the safe default, so
      components that never opt in behave exactly as under ``naive``);
    * a future cycle ``c`` — quiescent until ``c`` barring new input; the
      engine parks the component and sets a timer;
    * :data:`FOREVER` — purely reactive; the component is parked until an
      external event (a queue push, a kernel launch, a DRAM completion)
      calls :meth:`Component.wake`.

    Because an idle component's ``tick`` is by contract a no-op, skipping
    it is cycle-exact.  When *nothing* is active — every warp asleep in
    ``WAIT_MEM``/``WaitUntilClock``, every queue and in-flight buffer
    empty — the engine fast-forwards the cycle counter directly to the
    earliest pending timer (or the end of the ``step`` window) instead of
    spinning through empty cycles.

    :meth:`Engine.run_until` stretches that jump across its check
    windows.  Its condition must be a predicate over simulated state,
    which cannot change while every component is parked, so a check
    that finds nothing active and the next timer more than
    ``check_every`` cycles out crosses the whole parked span in one
    ``step`` to the last check point at or before the timer.  Timers of
    *observer* components (the telemetry probe), which read model state
    and never change it, do not bound that stride; the step still ticks
    them on time.

    Stepping is event-driven: the active set is a set of registration
    indices, and each busy cycle ticks exactly those indices in pipeline
    order (a ``sorted()`` frontier), so a busy cycle costs
    O(#active · log #active) rather than a scan over every registered
    component.  At the paper's Table-1 scale (212 components) one covert
    channel keeps only a handful of components live per busy cycle.

Mid-cycle wake ordering matches the naive loop: a component woken at an
index *after* the current scan position is pushed into the live frontier
and ticked in the same cycle (an upstream push is visible downstream
within the cycle, as registration order is pipeline order); a wake at or
before the current position takes effect next cycle (exactly when the
naive loop would next reach it).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Set

#: Sentinel returned by :meth:`Component.idle_until` for "no self-scheduled
#: work, ever — wake me only on external input".  Any cycle number at or
#: beyond this is treated as "no timer".
FOREVER = 1 << 62

#: Accepted Engine scheduling strategies.
STRATEGIES = ("active", "naive")

#: ``Engine._scan_pos`` outside a busy cycle's scan (no wake can beat it).
_NOT_SCANNING = FOREVER


class Component:
    """Base class for anything the engine ticks once per cycle."""

    #: Human-readable name used in traces and error messages.
    name: str = "component"
    #: Back-reference set by :meth:`Engine.register` (one engine at most).
    _engine: Optional["Engine"] = None
    #: Position in the engine's registration (= pipeline) order.
    _engine_index: int = -1
    #: True for components that only read model state (the telemetry
    #: probe): their timers never bound a :meth:`Engine.run_until`
    #: stride, since nothing they do can change its condition.
    observer: bool = False

    def tick(self, cycle: int) -> None:  # pragma: no cover - interface
        """Advance one cycle of work."""

    def reset(self) -> None:
        """Return to the post-construction state.  Optional."""

    def state_digest(self):
        """Comparable summary of this component's mutable state.

        Used by the lockstep oracle (``repro.validate.oracle``) to compare
        two engines running the same seeded workload under different
        scheduling strategies.  Must be cheap, hashable, and must not
        include identity-bound values (object ids, global counters such
        as packet uids) that differ between separately-built devices.
        Return ``None`` (the default) to opt out of comparison.
        """
        return None

    # -- activity contract (active-set scheduling) ---------------------- #
    def idle_until(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this component has work.

        Called by the engine immediately after ``tick(cycle)`` under the
        ``active`` strategy.  Return:

        * ``None`` — busy: tick me again next cycle (default; always
          correct);
        * an ``int > cycle`` — my ``tick`` is a no-op until that cycle
          unless new input arrives (the engine will park me and set a
          timer);
        * :data:`FOREVER` — purely reactive: park me until something
          calls :meth:`wake`.

        The contract is strict: while parked, the component's ``tick``
        must be a state-preserving no-op, otherwise the active strategy
        diverges from the naive reference.
        """
        return None

    def wake(self) -> None:
        """Mark this component active (new external input arrived).

        Safe to call from anywhere — components not registered with an
        engine, or registered with a ``naive`` engine, ignore it.  The
        component joins the active set at once: if its pipeline position
        has not been passed this cycle it is ticked this very cycle,
        otherwise next cycle — exactly when the naive loop would next run
        it.  Every queue commit and every pop that frees a blocked
        producer lands here.
        """
        engine = self._engine
        if engine is not None:
            index = self._engine_index
            active = engine._active
            if index not in active:
                active.add(index)
                if index > engine._scan_pos:
                    heappush(engine._frontier, index)


class Engine:
    """Ticks registered components in order until stopped.

    Parameters
    ----------
    components:
        Initial component list; more can be added with :meth:`register`.
    strategy:
        ``"active"`` (default) for active-set scheduling with quiescence
        fast-forward, or ``"naive"`` for the reference tick-everything
        loop.  Both are cycle-exact with respect to each other.
    """

    def __init__(
        self,
        components: Optional[List[Component]] = None,
        strategy: str = "active",
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown engine strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.strategy = strategy
        self._components: List[Component] = []
        self.cycle: int = 0
        # -- active-set state ------------------------------------------- #
        #: Registration indices to tick (the active set).
        self._active: Set[int] = set()
        #: Live frontier heap of the busy cycle being scanned.
        self._frontier: List[int] = []
        #: Index currently being ticked, or ``_NOT_SCANNING``.
        self._scan_pos: int = _NOT_SCANNING
        #: Min-heap of (wake_cycle, index) timers; entries may be stale
        #: (superseded by an earlier wake) — stale pops are harmless
        #: because waking an idle component only costs a no-op tick.
        self._timers: List = []
        #: Earliest scheduled timer per component, to avoid heap spam.
        self._timer_at: List[Optional[int]] = []
        #: Registration indices of observer components.
        self._observers: Set[int] = set()
        # -- instrumentation -------------------------------------------- #
        #: Total component ticks actually executed.
        self.ticks_executed: int = 0
        #: Cycles skipped in one jump because the whole model was quiescent.
        self.fast_forwarded_cycles: int = 0
        #: Optional observer called as ``on_fast_forward(from, to)`` when
        #: the active strategy jumps over a quiescent gap (telemetry).
        self.on_fast_forward: Optional[Callable[[int, int], None]] = None
        #: Optional observer called at the end of :meth:`reset`, after
        #: every component has been reset.  The device wires this to its
        #: telemetry/stats reset so an engine reset leaves no stale
        #: observability state behind.
        self.on_reset: Optional[Callable[[], None]] = None
        #: Optional :class:`repro.metrics.EngineProfiler`.  Read-only
        #: sampled self-profiling of the scheduling loop (active-set
        #: sizes, fast-forward spans); ``None`` costs one branch per
        #: busy cycle.  Only the scheduling strategies consult it — the
        #: naive reference loop has no schedule to profile.
        self.profiler = None
        for component in components or []:
            self.register(component)

    def register(self, component: Component) -> Component:
        """Add ``component`` to the tick list and return it."""
        component._engine = self
        component._engine_index = len(self._components)
        self._components.append(component)
        if component.observer:
            self._observers.add(component._engine_index)
        # New components start active; the first tick prunes idle ones.
        # One registered by a tick mid-scan lies ahead of the scan
        # position, so it joins this cycle's frontier.
        index = component._engine_index
        self._active.add(index)
        if index > self._scan_pos:
            heappush(self._frontier, index)
        self._timer_at.append(None)
        return component

    def register_all(self, components: List[Component]) -> None:
        for component in components:
            self.register(component)

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    def _fire_due_timers(self, cycle: int) -> None:
        timers = self._timers
        active = self._active
        while timers and timers[0][0] <= cycle:
            due, index = heappop(timers)
            if self._timer_at[index] == due:
                self._timer_at[index] = None
            active.add(index)

    # ------------------------------------------------------------------ #
    # Stepping.
    # ------------------------------------------------------------------ #
    def step(self, cycles: int = 1) -> int:
        """Run ``cycles`` cycles; return the cycle counter afterwards."""
        if self.strategy == "naive":
            return self._step_naive(cycles)
        return self._step_active(cycles)

    def _step_naive(self, cycles: int) -> int:
        components = self._components
        for _ in range(cycles):
            cycle = self.cycle
            for component in components:
                component.tick(cycle)
            self.ticks_executed += len(components)
            self.cycle = cycle + 1
        return self.cycle

    def _step_active(self, cycles: int) -> int:
        components = self._components
        active = self._active
        profiler = self.profiler
        timers = self._timers
        timer_at = self._timer_at
        cycle = self.cycle
        target = cycle + cycles
        while cycle < target:
            if timers and timers[0][0] <= cycle:
                self._fire_due_timers(cycle)
            if not active:
                # Whole model quiescent: fast-forward to the earliest
                # timer (or the end of this step window) in one jump.
                jump = timers[0][0] if timers else target
                if jump > target:
                    jump = target
                if jump <= cycle:  # pragma: no cover - defensive
                    jump = cycle + 1
                self.fast_forwarded_cycles += jump - cycle
                if self.on_fast_forward is not None:
                    self.on_fast_forward(cycle, jump)
                if profiler is not None:
                    profiler.note_fast_forward(jump - cycle)
                self.cycle = cycle = jump
                continue
            if profiler is not None and cycle >= profiler.next_sample:
                profiler.sample(cycle, len(active))
            # A sorted list is a valid min-heap, so mid-cycle wakes ahead
            # of the scan position can heappush into it directly.
            frontier = self._frontier = sorted(active)
            ticked = 0
            pos = -1
            while frontier:
                index = heappop(frontier)
                if index <= pos:
                    continue  # duplicate mid-cycle wake
                pos = self._scan_pos = index
                component = components[index]
                component.tick(cycle)
                ticked += 1
                until = component.idle_until(cycle)
                if until is not None and until > cycle + 1:
                    # Park, with a timer unless purely reactive; an
                    # equal-or-earlier pending timer stands.
                    active.discard(index)
                    if until < FOREVER:
                        previous = timer_at[index]
                        if previous is None or previous > until:
                            timer_at[index] = until
                            heappush(timers, (until, index))
            self._scan_pos = _NOT_SCANNING
            self.ticks_executed += ticked
            self.cycle = cycle = cycle + 1
        return cycle

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 10_000_000,
        check_every: int = 1,
    ) -> int:
        """Step until ``condition()`` is true; raise on ``max_cycles``.

        Semantics (identical under both strategies):

        * ``condition`` is evaluated *before* the first step — a condition
          that already holds returns immediately at the current cycle —
          and then every ``check_every`` cycles, so the returned cycle is
          the first multiple of ``check_every`` (from the starting cycle)
          at which the condition is observed true.
        * The budget is exact: the engine never advances more than
          ``max_cycles`` cycles past the starting cycle.  The final step
          before the budget runs out is clamped to the remaining cycles,
          and :class:`TimeoutError` is raised once exactly ``max_cycles``
          cycles have elapsed with the condition still false.

        ``check_every`` amortizes the cost of expensive conditions by only
        evaluating them every N cycles; it must be at least 1.

        ``condition`` must be a predicate over simulated state (kernel
        ``done`` flags, stream idleness, in-flight packet counts): that is
        what lets a parked span be crossed in one step.  When a check
        finds the condition false, no component active and the earliest
        pending timer more than ``check_every`` cycles away, nothing can
        change before that timer fires, so every check point before it
        would read the same false condition.  The engine then takes one
        :meth:`step` to the last check point at or before the timer
        instead of one step per window, and returns the same cycle as
        per-window stepping would.  Observer timers are stepped over:
        the stride runs to the earliest timer of a non-observer.  With
        no such timer pending (or under ``naive``, which never parks) it
        steps ``check_every`` cycles at a time.
        """
        if check_every < 1:
            raise ValueError("check_every must be at least 1")
        start = self.cycle
        timers = self._timers
        while not condition():
            cycle = self.cycle
            remaining = max_cycles - (cycle - start)
            if remaining <= 0:
                raise TimeoutError(
                    f"condition not met within {max_cycles} cycles"
                )
            stride = check_every
            if timers and not self._active:
                at = timers[0][0]
                if self._observers:
                    at = self._next_model_timer()
                gap = at - cycle
                if gap > check_every:
                    stride = gap - gap % check_every
            self.step(stride if stride < remaining else remaining)
        return self.cycle

    def _next_model_timer(self) -> int:
        """Earliest pending timer of a non-observer component.

        Returns the current cycle (no stride) when only observers have
        timers pending.
        """
        observers = self._observers
        earliest = FOREVER
        for at, index in self._timers:
            if at < earliest and index not in observers:
                earliest = at
        return self.cycle if earliest == FOREVER else earliest

    def reset(self) -> None:
        """Reset the cycle counter and every component."""
        self.cycle = 0
        self.ticks_executed = 0
        self.fast_forwarded_cycles = 0
        self._timers.clear()
        self._timer_at = [None] * len(self._components)
        self._active = set(range(len(self._components)))
        self._frontier = []
        self._scan_pos = _NOT_SCANNING
        for component in self._components:
            component.reset()
        if self.on_reset is not None:
            self.on_reset()
