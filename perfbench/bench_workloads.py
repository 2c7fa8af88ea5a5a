"""The benchmark's workloads: sizes, one operation each, and its checks.

Every workload is a closed loop driven by :mod:`run`: one caller issues
operation ``i + 1`` only after operation ``i`` has completed and been
checked.  Inputs (payload bits, query points, grid seeds) derive from the
benchmark seed and the operation index only.  ``repro`` is imported
lazily, inside :meth:`Workload.setup`, so the set-up timing covers the
imports.  Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple


def _rng(seed: int, *labels: Any) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _bits_digest(bits: List[int]) -> str:
    return hashlib.sha256("".join(map(str, bits)).encode()).hexdigest()[:16]


class OpResult:
    """What one operation did, for the metrics and the checks."""

    def __init__(self) -> None:
        #: Simulated outcome; must be identical between a traced and an
        #: untraced run of the same operation.
        self.sim: Dict[str, Any] = {}
        #: Simulated cycles of every device run in the operation.
        self.cycles = 0
        #: Failed checks (empty = correct).
        self.problems: List[str] = []
        #: Extra host timings (``serve_sweep``: cold/warm/query latencies).
        self.timings: Dict[str, Any] = {}
        #: Layer counters the traced run reports (deterministic).
        self.counts: Dict[str, float] = {}
        #: Outputs kept only until :meth:`Workload.check` has read them.
        self.checks: Optional[Tuple[Any, Any]] = None


class Workload:
    """Base class: ``setup`` builds the inputs, ``op`` runs one operation."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Directory (inside the checkout) for per-run temporary files.
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, tracer, meter) -> OpResult:
        raise NotImplementedError

    def prepare(self, meter) -> None:
        """Untimed work before the first operation (default: none)."""

    def check(self, result: OpResult) -> None:
        """Untimed checks after an operation (default: none)."""


class ChannelWorkload(Workload):
    """Calibrate then transmit a seeded payload on a fresh channel."""

    #: Highest bit error rate accepted per transmission.
    error_ceiling = 0.0

    def sizes(self) -> Tuple[int, int]:
        """(training symbols, payload bits)."""
        raise NotImplementedError

    def build_channel(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.channel = self.build_channel()
        self.training, self.payload_bits = self.sizes()

    def op(self, index: int, tracer, meter) -> OpResult:
        result = OpResult()
        # A seeded shuffle of an even number of ones and zeros: '1' slots
        # carry the sender's traffic, so a fixed ones count keeps the
        # simulated work per operation the same across seeds.
        bits = [i % 2 for i in range(self.payload_bits)]
        _rng(self.seed, self.name, index).shuffle(bits)
        channel = self.build_channel()
        meter.take()
        with tracer.span("channel.calibrate"):
            threshold = channel.calibrate(training_symbols=self.training)
        with tracer.span("channel.transmit"):
            sent = channel.transmit(bits)
        engines = meter.take()
        result.cycles = engines["cycles"]
        result.counts = {
            "sim.engine.ticks": engines["ticks"],
            "sim.engine.ff_cycles": engines["ff_cycles"],
            "sim.engine.cycles": engines["cycles"],
        }
        result.sim = {
            "cycles": engines["cycles"],
            "transmit_cycles": sent.cycles,
            "threshold": threshold,
            "received_sha256": _bits_digest(sent.received_symbols),
        }
        if sent.sent_symbols != bits:
            result.problems.append("channel did not send the payload given")
        if sent.error_rate > self.error_ceiling:
            result.problems.append(
                f"bit error rate {sent.error_rate:.4f} above the "
                f"{self.error_ceiling} ceiling"
            )
        return result


class TpcSparse(ChannelWorkload):
    name = "tpc_sparse"
    error_ceiling = 0.05

    def sizes(self) -> Tuple[int, int]:
        return (8, 8) if self.smoke else (16, 24)

    def build_channel(self):
        from repro.channel.tpc_channel import TpcCovertChannel
        from repro.config import VOLTA_V100, small_config

        config = small_config() if self.smoke else VOLTA_V100
        return TpcCovertChannel(config)


class GpcDense(ChannelWorkload):
    name = "gpc_dense"
    error_ceiling = 0.05

    def sizes(self) -> Tuple[int, int]:
        # Two training symbols is the least that yields both classes.
        return 2, 2 * self.channel.num_channels

    def build_channel(self):
        from repro.channel.gpc_channel import GpcCovertChannel
        from repro.config import VOLTA_V100, small_config

        config = small_config() if self.smoke else VOLTA_V100
        # Two sender iterations per slot instead of four: the shortest
        # slot at which all six channels still decode without error (one
        # iteration does not), so a run holds more operations.
        params = GpcCovertChannel.all_channels(config).params
        return GpcCovertChannel.all_channels(
            config, params=params.with_(iterations=2))


class LinkRing(ChannelWorkload):
    name = "link_ring"
    error_ceiling = 0.05

    def sizes(self) -> Tuple[int, int]:
        return (4, 4) if self.smoke else (8, 8)

    def build_channel(self):
        from repro.channel.link_channel import LinkCovertChannel
        from repro.config import LinkConfig, small_config

        return LinkCovertChannel(
            small_config(), LinkConfig(num_devices=2, topology="ring")
        )


class ServeSweep(Workload):
    """Two overlapping fig10 grids through the service, cold then warm,
    then a capacity surface answering seeded queries."""

    name = "serve_sweep"
    FN = "repro.runner.workloads.fig10_point"

    def setup(self) -> None:
        from repro.config import ServiceConfig, small_config
        from repro.runner import ResultCache, SimJob, SweepService

        if self.smoke:
            grid_a, grid_b, self.bits, self.queries = [1, 2], [2, 3], 2, 200
        else:
            grid_a, grid_b = [1, 2, 3, 4, 5], [4, 5, 6, 7, 8]
            self.bits, self.queries = 2, 2000
        config = small_config()

        def job(count: int) -> Any:
            return SimJob(
                fn=self.FN,
                config=config,
                params={
                    "kind": "tpc",
                    "iteration_count": count,
                    "bits_per_channel": self.bits,
                    "seed": 1021 + _rng(self.seed, "grid", count)
                    .randrange(1 << 20),
                },
            )

        self.requests = [[job(n) for n in grid_a], [job(n) for n in grid_b]]
        self.unique = {
            job.params["iteration_count"]: job
            for request in self.requests for job in request
        }
        self.grid = sorted(self.unique)
        self.service = ServiceConfig()
        # Build a store and a service once, as set-up; each operation
        # then builds its own in a fresh directory.
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        SweepService(ResultCache(store), service=self.service)
        shutil.rmtree(store)

    def _queries(self, index: int) -> List[Tuple[str, float]]:
        rng = _rng(self.seed, self.name, index, "queries")
        lo, hi = self.grid[0], self.grid[-1]
        out: List[Tuple[str, float]] = []
        for q in range(self.queries):
            kind = ("exact", "interpolated", "nearest")[q % 3]
            if kind == "exact":
                x = float(rng.choice(self.grid))
            elif kind == "interpolated":
                x = rng.randrange(lo, hi) + rng.uniform(0.05, 0.95)
            elif rng.random() < 0.5:
                x = lo - rng.uniform(0.5, 3.0)
            else:
                x = hi + rng.uniform(0.5, 3.0)
            out.append((kind, x))
        return out

    def op(self, index: int, tracer, meter) -> OpResult:
        from repro.metrics.registry import MetricsRegistry
        from repro.runner import (
            CapacitySurface,
            JobFailure,
            ResultCache,
            serve_requests,
        )

        result = OpResult()
        queries = self._queries(index)
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        registry = MetricsRegistry()
        try:
            store = ResultCache(store_dir, metrics=registry)
            clock = time.perf_counter
            start = clock()
            cold, cold_manifest = serve_requests(
                self.requests, cache=store, service=self.service,
                metrics=registry,
            )
            cold_s = clock() - start
            start = clock()
            warm, warm_manifest = serve_requests(
                self.requests, cache=store, service=self.service,
                metrics=registry,
            )
            warm_s = clock() - start
            rows = {
                job.params["iteration_count"]: row
                for request, rows_ in zip(self.requests, cold)
                for job, row in zip(request, rows_)
            }
            failures = [row for row in rows.values()
                        if isinstance(row, JobFailure)]
            if failures:
                result.problems.extend(f"job failed: {f}" for f in failures)
                return result
            with tracer.span("runner.surface.build"):
                surface = CapacitySurface.from_rows(
                    [rows[n] for n in self.grid], metrics=registry
                )
            latencies: List[float] = []
            answers: List[Tuple[str, float, Any]] = []
            result.checks = (rows, answers)
            for kind, x in queries:
                start = clock()
                prediction = surface.predict(iterations=x)
                latencies.append(clock() - start)
                answers.append((kind, x, prediction))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        result.timings = {
            "cold_request_s": cold_s,
            "warm_request_s": warm_s,
            "query_s": latencies,
        }
        refs = sum(len(request) for request in self.requests)
        result.counts = {
            "runner.service.jobs": 2 * refs,
            "runner.service.dispatched": (
                cold_manifest["dispatched"] + warm_manifest["dispatched"]),
            "runner.service.attached": (
                cold_manifest["attached"] + warm_manifest["attached"]),
            "runner.service.cache_hit": (
                cold_manifest["cache_hit"] + warm_manifest["cache_hit"]),
            "runner.cache.hits": store.hits,
            "runner.cache.misses": store.misses,
            "runner.cache.puts": cold_manifest["completed"]
            + warm_manifest["completed"],
        }
        result.cycles = self.cycles
        result.sim = {
            "cycles": self.cycles,
            "rows_sha256": hashlib.sha256(repr(
                [(n, rows[n]["bandwidth_kbps"], rows[n]["error_rate"])
                 for n in self.grid]).encode()).hexdigest()[:16],
        }
        unique = len(self.grid)
        if cold_manifest["dispatched"] != unique:
            result.problems.append(
                f"cold pair dispatched {cold_manifest['dispatched']} jobs "
                f"for {unique} unique points")
        if warm_manifest["cache_hit"] != refs or warm_manifest["dispatched"]:
            result.problems.append("warm pair was not answered from the store")
        if warm != cold:
            result.problems.append("warm answers differ from cold answers")
        return result

    def prepare(self, meter) -> None:
        """Run every grid point directly, in this process.

        The results are the reference the served answers are checked
        against.  They also give the simulated cycles per grid point
        (the service's workers are other processes, so an operation
        cannot count them) and the in-process execute time, against
        which the supervised job time is compared.
        """
        from repro.runner.runner import execute

        self.direct: Dict[int, Dict[str, Any]] = {}
        self.cycles = 0
        self.execute_s = 0.0
        meter.take()
        for count in self.grid:
            start = time.perf_counter()
            self.direct[count] = execute(self.unique[count])
            self.execute_s += time.perf_counter() - start
            self.cycles += meter.take()["cycles"]

    def check(self, result: OpResult) -> None:
        if result.checks is None:
            return
        rows, answers = result.checks
        result.checks = None
        for count in self.grid:
            for key in ("bandwidth_kbps", "error_rate", "iterations"):
                if rows[count][key] != self.direct[count][key]:
                    result.problems.append(
                        f"served point {count} {key} differs from a "
                        f"direct fig10_point run")
        for kind, x, prediction in answers:
            problem = _check_answer(kind, x, prediction, self.direct,
                                    self.grid)
            if problem:
                result.problems.append(problem)
                break


def _check_answer(kind: str, x: float, prediction: Any,
                  direct: Dict[int, Dict[str, Any]],
                  grid: List[int]) -> Optional[str]:
    """Independent reference for one surface answer (None = correct)."""
    if prediction.source != kind:
        return f"query {x}: source {prediction.source}, expected {kind}"
    if kind == "exact":
        expect_bw = direct[int(x)]["bandwidth_kbps"]
        expect_err = direct[int(x)]["error_rate"]
    elif kind == "nearest":
        edge = grid[0] if x < grid[0] else grid[-1]
        expect_bw = direct[edge]["bandwidth_kbps"]
        expect_err = direct[edge]["error_rate"]
    else:
        lo = max(n for n in grid if n < x)
        hi = min(n for n in grid if n > x)
        frac = (x - lo) / (hi - lo)
        expect_bw = direct[lo]["bandwidth_kbps"] + frac * (
            direct[hi]["bandwidth_kbps"] - direct[lo]["bandwidth_kbps"])
        expect_err = direct[lo]["error_rate"] + frac * (
            direct[hi]["error_rate"] - direct[lo]["error_rate"])
    tolerance = 0.0 if kind != "interpolated" else 1e-9
    for got, want in ((prediction.bandwidth_kbps, expect_bw),
                      (prediction.error_rate, expect_err)):
        if abs(got - want) > tolerance * max(1.0, abs(want)):
            return f"query {x} ({kind}): answered {got}, reference {want}"
    return None


WORKLOADS = {
    cls.name: cls for cls in (TpcSparse, GpcDense, LinkRing, ServeSweep)
}
