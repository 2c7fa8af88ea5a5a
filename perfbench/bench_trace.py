"""Outside-in instrumentation for the benchmark.

Nothing here edits the program: every hook is a wrapper this module
installs over a public entry point of the ``repro`` package (and removes
again), so the untraced runs execute the original code untouched.

Two instruments live here:

``EngineMeter``
    Records every :class:`repro.sim.engine.Engine` built while it is
    installed, so an operation can count the simulated cycles, ticks and
    fast-forwarded cycles of *every* device run it made (calibration
    included).  One wrapper call per engine; it is installed in both the
    timed and the traced runs.

``Tracer``
    The traced run.  Coarse boundaries (device build, channel calibrate /
    transmit, service submit, supervised job, store get / put, surface
    build / predict) become spans ``(name, start, end, parent, op)`` kept
    in memory and written at exit as a Chrome-trace JSON.  The hot
    boundaries -- ``Engine.step`` and every ``Component.tick`` -- run
    hundreds of thousands of times per operation, so they are aggregated
    into per-layer call counts and seconds instead of stored one by one.
    ``Engine.step`` self time is its duration minus the component ticks
    inside it: the active-set scan, the timer heap and fast-forward.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Component class name -> layer whose ``tick`` time it is charged to.
#: The interconnect's per-node routers are ``Crossbar`` instances, so
#: their ticks land in ``noc.crossbar`` on the link workload.
TICK_LAYERS = {
    "StreamingMultiprocessor": "gpu.sm",
    "ThreadBlockScheduler": "gpu.scheduler",
    "Mux": "noc.mux",
    "Crossbar": "noc.crossbar",
    "L2Slice": "gpu.l2slice",
    "MemoryController": "gpu.dram",
    "GpcReplyDistributor": "gpu.reply_path",
    "LinkPipe": "interconnect.link",
    "FabricIngress": "interconnect.ingress",
}
#: Layer for component classes not listed above (telemetry probes, the
#: invariant checker); neither is enabled by any benchmark workload.
OTHER_LAYER = "other"


def _import_component_modules() -> None:
    """Import every module that defines a ``Component`` subclass."""
    import repro.gpu.device  # noqa: F401  (SM, muxes, crossbar, L2, DRAM)
    import repro.interconnect  # noqa: F401  (LinkPipe, FabricIngress)
    import repro.telemetry  # noqa: F401  (TimelineProbe)
    import repro.validate  # noqa: F401  (InvariantChecker)


def _component_classes() -> List[type]:
    from repro.sim.engine import Component

    found: List[type] = []
    pending = [Component]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __bool__(self) -> bool:
        return bool(self._saved)


class EngineMeter:
    """Collects the engines built while installed."""

    def __init__(self) -> None:
        self.engines: List[Any] = []
        self._patches = _Patches()

    def install(self) -> None:
        from repro.sim.engine import Engine

        original = Engine.__init__
        engines = self.engines

        @functools.wraps(original)
        def __init__(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            engines.append(engine)

        self._patches.set(Engine, "__init__", __init__)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> Dict[str, int]:
        """Totals over the engines built since the last call; resets."""
        engines = list(self.engines)
        self.engines.clear()
        return {
            "cycles": sum(e.cycle for e in engines),
            "ticks": sum(e.ticks_executed for e in engines),
            "ff_cycles": sum(e.fast_forwarded_cycles for e in engines),
        }


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tid", "hot", "sid")

    def __init__(self, name: str, parent: Optional["Span"], op: Any,
                 sid: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.tid = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        #: Seconds of ``Engine.step`` called directly under this span.
        self.hot = 0.0
        self.sid = sid


class Tracer:
    """Spans at layer boundaries plus aggregated hot-path counters.

    ``span()`` is a no-op unless the wrappers are installed, so workload
    code calls it unconditionally.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: layer -> [calls, seconds]; ``sim.engine.step`` also keeps the
        #: self seconds as a third slot.
        self.hot: Dict[str, List[float]] = {}
        #: Seconds spent inside component ticks (all layers), read by the
        #: step wrapper to compute its self time.
        self._leaf = [0.0]
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches = _Patches()
        # Supervised jobs run on the service's shard threads; next() on
        # a count is atomic, so their span ids stay unique.
        self._ids = itertools.count()
        self.t0 = time.perf_counter()
        #: Operation id stamped on new spans (set by the harness).
        self.op: Any = None
        # A forked worker (the supervised runner forks) must run the
        # original code, not the parent's wrappers.
        os.register_at_fork(after_in_child=self._patches.undo)

    # -- spans ----------------------------------------------------------- #
    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self._patches:
            yield None
            return
        record = Span(name, self._current.get(), self.op, next(self._ids))
        token = self._current.set(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def _spanned(self, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    def _spanned_async(self, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            with tracer.span(name):
                return await original(*args, **kwargs)

        return wrapper

    # -- hot paths ------------------------------------------------------- #
    def _wrap_tick(self, original: Callable, layer: str) -> Callable:
        acc = self.hot.setdefault(layer, [0, 0.0])
        leaf = self._leaf
        clock = time.perf_counter

        @functools.wraps(original)
        def tick(component, cycle):
            start = clock()
            original(component, cycle)
            elapsed = clock() - start
            acc[0] += 1
            acc[1] += elapsed
            leaf[0] += elapsed

        return tick

    def _wrap_step(self, original: Callable) -> Callable:
        acc = self.hot.setdefault("sim.engine.step", [0, 0.0, 0.0])
        leaf = self._leaf
        current = self._current
        clock = time.perf_counter

        @functools.wraps(original)
        def step(engine, cycles=1):
            leaf_before = leaf[0]
            start = clock()
            try:
                return original(engine, cycles)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - (leaf[0] - leaf_before)
                parent = current.get()
                if parent is not None:
                    parent.hot += elapsed

        return step

    # -- install --------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        _import_component_modules()
        from repro.gpu.device import GpuDevice
        from repro.runner import cache, service, surface
        from repro.sim.engine import Engine

        for cls in _component_classes():
            if "tick" in cls.__dict__:
                layer = TICK_LAYERS.get(cls.__name__, OTHER_LAYER)
                self._patches.set(
                    cls, "tick", self._wrap_tick(cls.__dict__["tick"], layer)
                )
        self._patches.set(Engine, "step", self._wrap_step(Engine.step))
        self._patches.set(GpuDevice, "__init__", self._spanned(
            "gpu.device.build", GpuDevice.__init__))
        self._patches.set(service.SweepService, "submit", self._spanned_async(
            "runner.service.submit", service.SweepService.submit))
        # The service resolves run_supervised through its own module
        # namespace, so that is the binding to replace.
        self._patches.set(service, "run_supervised", self._spanned(
            "runner.supervisor.job", service.run_supervised))
        self._patches.set(cache.ResultCache, "get", self._spanned(
            "runner.cache.get", cache.ResultCache.get))
        self._patches.set(cache.ResultCache, "put", self._spanned(
            "runner.cache.put", cache.ResultCache.put))
        self._patches.set(surface.CapacitySurface, "predict", self._spanned(
            "runner.surface.predict", surface.CapacitySurface.predict))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- reading --------------------------------------------------------- #
    def hot_snapshot(self) -> Dict[str, Tuple[float, ...]]:
        return {layer: tuple(acc) for layer, acc in self.hot.items()}

    def op_spans(self, op: Any) -> List[Span]:
        return [span for span in self.spans if span.op == op]

    def self_times(self, spans: List[Span]) -> Dict[int, float]:
        """Span id -> duration minus the union of its children and steps."""
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent.sid, []).append(span)
        out: Dict[int, float] = {}
        for span in spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.sid, ()),
                                key=lambda c: c.start):
                lo = max(child.start, edge)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[span.sid] = span.end - span.start - covered - span.hot
        return out

    def write_chrome_trace(self, path: str, extra: Dict[str, Any]) -> None:
        """Chrome-trace JSON: one complete event per span.

        Hot-path aggregates (ticks, steps) have no individual events; the
        harness passes them per operation in ``extra``, stored under
        ``otherData``.
        """
        selfs = self.self_times(self.spans)
        pid = os.getpid()
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - self.t0) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {
                    "op": span.op,
                    "id": span.sid,
                    "parent": (
                        span.parent.sid if span.parent is not None else None
                    ),
                    "self_us": selfs[span.sid] * 1e6,
                },
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": extra}, handle)
