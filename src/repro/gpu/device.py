"""The assembled GPU device.

:class:`GpuDevice` wires every component into one simulatable system:

* per-SM injection queues feeding 2:1 **TPC muxes**,
* per-GPC **GPC muxes** with bandwidth speedup,
* a request **crossbar** routing GPC channels to the 48 L2 slices,
* banked **L2 slices** backed by HBM2-timing memory controllers,
* a reply **crossbar** plus per-GPC reply distributors back to the SMs,
* a **thread-block scheduler** with the reverse-engineered placement
  policy, and per-SM **clock registers** with the calibrated skew model.

It is the public entry point for every experiment::

    device = GpuDevice(VOLTA_V100)
    stream = device.create_stream()
    device.launch(kernel, stream)
    device.run()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..config import GpuConfig, VOLTA_V100
from ..noc.arbiter import make_policy
from ..noc.buffer import PacketQueue
from ..noc.crossbar import Crossbar
from ..noc.mux import Mux
from ..noc.packet import Packet
from ..sim.clock import ClockSystem
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry
from ..telemetry.collect import note_device
from .dram import MemoryController
from .kernel import Kernel, Stream
from .l2slice import L2Slice
from .reply_path import GpcReplyDistributor
from .scheduler import ThreadBlockScheduler
from .sm import StreamingMultiprocessor

if TYPE_CHECKING:
    from ..telemetry.hub import Telemetry


class GpuDevice:
    """A complete simulated GPU built from a :class:`GpuConfig`."""

    def __init__(
        self,
        config: GpuConfig = VOLTA_V100,
        l1_enabled: bool = False,
        seed_salt: int = 0,
        engine=None,
        device_id: int = 0,
        fabric: bool = False,
    ) -> None:
        self.config = config
        self.stats = StatsRegistry()
        #: Device id within a multi-GPU system (0 standalone).
        self.device_id = device_id
        #: Whether this device created its engine.  A device embedded in
        #: a :class:`repro.interconnect.MultiGpuSystem` shares the
        #: system's engine and must not claim its single-slot hooks
        #: (``on_reset``, ``on_fast_forward``, ``profiler``) — the system
        #: installs fan-outs over all devices instead.
        self._owns_engine = engine is None
        self.engine = (
            Engine(strategy=config.engine_strategy) if engine is None
            else engine
        )
        self._seed_salt = seed_salt
        #: Cross-device delivery hook (multi-GPU systems): called with
        #: packets whose ``src_device`` is another device, instead of the
        #: local SM delivery path.
        self._cross_deliver = None
        self.clocks = ClockSystem(config, self.engine, seed_salt=seed_salt)
        #: Telemetry hub; None unless ``config.telemetry_enabled``.
        self.telemetry: Optional[Telemetry] = None
        if config.telemetry_enabled:
            from ..telemetry.hub import Telemetry

            self.telemetry = Telemetry.from_config(config)
        #: Engine self-profiler (repro.metrics); None unless
        #: ``config.metrics_enabled``.
        self.profiler = None
        self._build(l1_enabled, fabric)
        if self.telemetry is not None:
            self._attach_telemetry()
        if config.metrics_enabled:
            self._attach_profiler()
        #: Conservation checker; None unless ``config.validate_enabled``.
        #: Imported lazily so the validate package (which builds devices
        #: for its lockstep oracle) never forms an import cycle.
        self._validator = None
        if config.validate_enabled:
            from ..validate.invariants import InvariantChecker

            InvariantChecker.attach(self)
        if self._owns_engine:
            self.engine.on_reset = self._reset_observability
        note_device(self)

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def _build(self, l1_enabled: bool, fabric: bool = False) -> None:
        config = self.config
        engine = self.engine
        depth = config.buffer_depth
        # Queue capacities in flits: deep enough for a handful of the
        # largest packets at every hop.
        cap = depth * max(
            config.write_request_flits, config.read_reply_flits
        )

        # -- inter-GPU fabric attachment points -------------------------- #
        # Built only when this device joins a MultiGpuSystem: one shared
        # egress queue toward the fabric for remote MemOps, and (below) a
        # per-slice remote reply VOQ merged onto a reply egress queue.
        self.fabric_inject: Optional[PacketQueue] = None
        self.fabric_reply: Optional[PacketQueue] = None
        self.remote_reply_mux: Optional[Mux] = None
        self._remote_voq_index: Optional[int] = None
        if fabric:
            self.fabric_inject = PacketQueue(
                f"d{self.device_id}.fab.inject", cap
            )

        # -- per-SM injection queues + SMs ------------------------------ #
        self.inject_queues: List[PacketQueue] = [
            PacketQueue(f"sm{sm}.inject", cap) for sm in range(config.num_sms)
        ]
        self.sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(
                sm,
                config,
                self.inject_queues[sm],
                self.clocks.read,
                stats=self.stats,
                l1_enabled=l1_enabled,
                seed_salt=self._seed_salt,
                device_id=self.device_id,
                remote_queue=self.fabric_inject,
            )
            for sm in range(config.num_sms)
        ]

        # -- TPC muxes (the covert channel's shared resource) ----------- #
        self.tpc_queues: List[PacketQueue] = [
            PacketQueue(f"tpc{t}.chan", cap) for t in range(config.num_tpcs)
        ]
        self.tpc_muxes: List[Mux] = []
        for tpc in range(config.num_tpcs):
            sm_ids = config.tpc_sms(tpc)
            self.tpc_muxes.append(
                Mux(
                    f"tpc{tpc}.mux",
                    [self.inject_queues[sm] for sm in sm_ids],
                    self.tpc_queues[tpc],
                    width=config.tpc_channel_width,
                    policy=make_policy(
                        config.arbitration, len(sm_ids), seed=config.seed + tpc
                    ),
                    stats=self.stats,
                )
            )

        # -- GPC muxes --------------------------------------------------- #
        members = config.gpc_members()
        self.gpc_queues: List[PacketQueue] = [
            PacketQueue(f"gpc{g}.chan", cap * 2) for g in range(config.num_gpcs)
        ]
        self.gpc_muxes: List[Mux] = []
        for gpc in range(config.num_gpcs):
            tpcs = members[gpc]
            self.gpc_muxes.append(
                Mux(
                    f"gpc{gpc}.mux",
                    [self.tpc_queues[tpc] for tpc in tpcs],
                    self.gpc_queues[gpc],
                    width=config.gpc_channel_width,
                    policy=make_policy(
                        config.arbitration, len(tpcs), seed=config.seed + 100 + gpc
                    ),
                    stats=self.stats,
                )
            )

        # -- request crossbar → L2 slices -------------------------------- #
        self.l2_request_queues: List[PacketQueue] = [
            PacketQueue(f"l2s{s}.req", cap) for s in range(config.num_l2_slices)
        ]
        self.request_xbar = Crossbar(
            "xbar.req",
            self.gpc_queues,
            self.l2_request_queues,
            route=lambda packet: packet.slice_id,
            width=config.xbar_width,
            policy_name="rr",
            seed=config.seed,
            stats=self.stats,
        )

        # -- memory controllers ------------------------------------------ #
        self.controllers: List[MemoryController] = [
            MemoryController(
                f"mc{mc}",
                config.dram,
                on_complete=self._dram_complete,
                stats=self.stats,
            )
            for mc in range(config.num_memory_controllers)
        ]

        # -- L2 slices with per-GPC reply VOQs ---------------------------- #
        # Each slice keeps one reply queue per destination GPC (virtual
        # output queueing) so a congested GPC reply port never blocks
        # replies bound for other GPCs.
        tpc_to_gpc = config.tpc_to_gpc_map()

        def reply_route(packet: Packet) -> int:
            return tpc_to_gpc[packet.src_sm // config.sms_per_tpc]

        if config.reply_voq:
            self.l2_reply_voqs: List[List[PacketQueue]] = [
                [
                    PacketQueue(f"l2s{s}.reply.g{g}", cap * 2)
                    for g in range(config.num_gpcs)
                ]
                for s in range(config.num_l2_slices)
            ]
            slice_reply_route = reply_route
        else:
            # Single-FIFO ablation: one shared reply queue per slice —
            # replies to all GPCs interleave and head-of-line block.
            self.l2_reply_voqs = [
                [PacketQueue(f"l2s{s}.reply", cap * 2)]
                for s in range(config.num_l2_slices)
            ]

            def slice_reply_route(packet: Packet) -> int:
                return 0
        if fabric:
            # One extra "remote" VOQ per slice: replies to a foreign
            # device leave through the fabric instead of a GPC reply
            # port, so local reply traffic never head-of-line blocks
            # behind a congested inter-GPU link (and vice versa).
            self._remote_voq_index = len(self.l2_reply_voqs[0])
            for s in range(config.num_l2_slices):
                self.l2_reply_voqs[s].append(
                    PacketQueue(
                        f"d{self.device_id}.l2s{s}.reply.rmt", cap * 2
                    )
                )
            local_reply_route = slice_reply_route
            device_id = self.device_id
            remote_index = self._remote_voq_index

            def slice_reply_route(packet: Packet) -> int:
                if packet.src_device != device_id:
                    return remote_index
                return local_reply_route(packet)
        slices_per_mc = max(1, config.num_l2_slices // len(self.controllers))
        self.l2_slices: List[L2Slice] = [
            L2Slice(
                s,
                config,
                self.l2_request_queues[s],
                self.l2_reply_voqs[s],
                reply_route=slice_reply_route,
                controller=self.controllers[
                    min(s // slices_per_mc, len(self.controllers) - 1)
                ],
                stats=self.stats,
                write_done=self._deliver_reply,
            )
            for s in range(config.num_l2_slices)
        ]

        # -- per-GPC reply channels (crossbar output side) → SMs ---------- #
        self.gpc_reply_queues: List[PacketQueue] = [
            PacketQueue(f"gpc{g}.reply", cap * 2)
            for g in range(config.num_gpcs)
        ]
        if config.reply_voq:
            self.reply_muxes: List[Component] = [
                Mux(
                    f"gpc{g}.replymux",
                    [
                        self.l2_reply_voqs[s][g]
                        for s in range(config.num_l2_slices)
                    ],
                    self.gpc_reply_queues[g],
                    width=config.gpc_reply_width,
                    policy=make_policy(
                        "rr", config.num_l2_slices, seed=config.seed + 300 + g
                    ),
                    stats=self.stats,
                )
                for g in range(config.num_gpcs)
            ]
        else:
            # HOL ablation: a crossbar whose input is each slice's single
            # reply FIFO; a head bound for a congested GPC blocks the
            # replies queued behind it.
            self.reply_muxes = [
                Crossbar(
                    "xbar.reply",
                    [voqs[0] for voqs in self.l2_reply_voqs],
                    self.gpc_reply_queues,
                    route=reply_route,
                    width=config.gpc_reply_width,
                    input_width=config.xbar_width,
                    seed=config.seed + 300,
                    stats=self.stats,
                )
            ]
        if fabric:
            # Reply egress toward the fabric: merge every slice's remote
            # VOQ onto one queue the fabric router consumes.
            self.fabric_reply = PacketQueue(
                f"d{self.device_id}.fab.reply", cap * 2
            )
            self.remote_reply_mux = Mux(
                f"d{self.device_id}.fab.replymux",
                [
                    voqs[self._remote_voq_index]
                    for voqs in self.l2_reply_voqs
                ],
                self.fabric_reply,
                width=config.gpc_reply_width,
                policy=make_policy(
                    "rr",
                    config.num_l2_slices,
                    seed=config.seed + 400 + self.device_id,
                ),
                stats=self.stats,
            )
        self.reply_distributors: List[GpcReplyDistributor] = [
            GpcReplyDistributor(
                gpc,
                config,
                self.gpc_reply_queues[gpc],
                members[gpc],
                deliver=self._deliver_reply,
                stats=self.stats,
            )
            for gpc in range(config.num_gpcs)
        ]

        # -- block scheduler ---------------------------------------------- #
        self.scheduler = ThreadBlockScheduler(config, self.sms)

        # Registration order == pipeline order (request downstream first,
        # then memory, then the reply path, then the scheduler).
        engine.register(self.scheduler)
        engine.register_all(self.sms)
        engine.register_all(self.tpc_muxes)
        engine.register_all(self.gpc_muxes)
        engine.register(self.request_xbar)
        engine.register_all(self.l2_slices)
        engine.register_all(self.controllers)
        engine.register_all(self.reply_muxes)
        if self.remote_reply_mux is not None:
            engine.register(self.remote_reply_mux)
        engine.register_all(self.reply_distributors)
        if config.engine_strategy == "active":
            self._wire_active()

    def _wire_active(self) -> None:
        """Switch the muxes and crossbars to their sparse ticks.

        The sparse ticks park while every live head is blocked on output
        space; the queues wake them (:mod:`repro.noc.buffer`).  The same
        whatever observers are attached, so validated and traced runs
        execute the production tick path.  ``naive`` devices keep the
        scalar ticks as the reference the lockstep oracle compares
        these against, digest for digest.
        """
        for mux in self.tpc_muxes:
            mux._sparse = True
        for mux in self.gpc_muxes:
            mux._sparse = True
        self.request_xbar._sparse = True
        for reply_mux in self.reply_muxes:
            reply_mux._sparse = True
        if self.remote_reply_mux is not None:
            self.remote_reply_mux._sparse = True

    def _attach_telemetry(self) -> None:
        """Opt every instrumented component into the telemetry hub.

        Runs only when ``config.telemetry_enabled``: components built
        with their ``_tracer`` attributes as ``None`` get a tracer and a
        component id, every packet queue gets an occupancy meter, a
        :class:`TimelineProbe` joins the engine to flush meters on epoch
        boundaries, and the engine reports fast-forward jumps to the hub.
        The probe is purely observational, so seeded runs stay
        bit-identical with telemetry on or off.
        """
        hub = self.telemetry
        assert hub is not None
        for sm in self.sms:
            sm.attach_telemetry(hub)
        for mux in self.tpc_muxes:
            mux.attach_telemetry(hub)
        for mux in self.gpc_muxes:
            mux.attach_telemetry(hub)
        self.request_xbar.attach_telemetry(hub)
        for l2_slice in self.l2_slices:
            l2_slice.attach_telemetry(hub)
        for controller in self.controllers:
            controller.attach_telemetry(hub)
        for reply_mux in self.reply_muxes:
            reply_mux.attach_telemetry(hub)
        for distributor in self.reply_distributors:
            distributor.attach_telemetry(hub)
        for queue in self.inject_queues:
            hub.timeline.register_queue(queue)
        for queue in self.tpc_queues:
            hub.timeline.register_queue(queue)
        for queue in self.gpc_queues:
            hub.timeline.register_queue(queue)
        for queue in self.l2_request_queues:
            hub.timeline.register_queue(queue)
        for voqs in self.l2_reply_voqs:
            for queue in voqs:
                hub.timeline.register_queue(queue)
        for queue in self.gpc_reply_queues:
            hub.timeline.register_queue(queue)
        from ..telemetry.timeline import TimelineProbe

        # Registered last: meters flush after every producer has ticked.
        self.engine.register(TimelineProbe(hub.timeline))
        if self._owns_engine:
            self.engine.on_fast_forward = hub.note_fast_forward

    def _attach_profiler(self) -> None:
        """Wire a sampled engine self-profiler (``config.metrics_enabled``).

        The profiler hangs off the engine and only *reads* scheduler
        state: seeded runs stay bit-identical with it on.
        """
        from ..metrics.profile import EngineProfiler

        config = self.config
        self.profiler = EngineProfiler(
            interval=config.metrics_interval,
            strategy=config.engine_strategy,
            # Standalone devices keep their label set unchanged; devices
            # embedded in a multi-GPU system add a ``device`` dimension.
            device=(None if self._owns_engine else self.device_id),
        )
        if self._owns_engine:
            self.engine.profiler = self.profiler

    def metrics_manifest(self) -> Optional[Dict]:
        """JSON-safe engine-profile metrics, or None when disabled."""
        if self.profiler is None:
            return None
        return self.profiler.manifest()

    def telemetry_manifest(self) -> Optional[Dict]:
        """JSON-safe telemetry summary, or None when telemetry is off."""
        if self.telemetry is None:
            return None
        self.telemetry.finalize(self.engine.cycle)
        return self.telemetry.manifest(self.stats)

    # ------------------------------------------------------------------ #
    # Internal plumbing callbacks.
    # ------------------------------------------------------------------ #
    def _dram_complete(self, token, cycle: int) -> None:
        l2_slice, packet = token
        l2_slice.dram_complete(packet, cycle)

    def _deliver_reply(self, packet: Packet, cycle: int) -> None:
        if packet.src_device != self.device_id:
            # A completion owed to a foreign device (in practice the
            # posted-write credit of a remote store, returned at L2
            # acceptance — the same convention as local posted writes,
            # whose acks are free).  Read replies never take this path:
            # they leave through the remote reply VOQs.
            self._cross_deliver(packet, cycle)
            return
        if self._validator is not None:
            self._validator.note_deliver(packet, cycle)
        self.sms[packet.src_sm].deliver_reply(packet, cycle)

    def _reset_observability(self) -> None:
        """Engine ``reset`` hook: clear everything the engine cannot see.

        Component state is reset by the engine itself; this clears the
        layers riding on top — stats, telemetry, and the clock system's
        jitter stream (not a Component) — so a run after
        :meth:`Engine.reset` behaves exactly like a fresh device.
        """
        self.stats.reset()
        self.clocks.reset()
        if self.telemetry is not None:
            self.telemetry.reset()
        if self.profiler is not None:
            self.profiler.reset()

    # ------------------------------------------------------------------ #
    # Public API.
    # ------------------------------------------------------------------ #
    def create_stream(self, name: str = "stream") -> Stream:
        return self.scheduler.add_stream(Stream(name))

    def launch(self, kernel: Kernel, stream: Optional[Stream] = None) -> Kernel:
        """Enqueue ``kernel`` on ``stream`` (a fresh stream if None)."""
        if stream is None:
            stream = self.create_stream(f"stream.{kernel.name}")
        stream.enqueue(kernel)
        self.scheduler.wake()
        return kernel

    def run(self, max_cycles: int = 20_000_000, check_every: int = 32) -> int:
        """Step until every stream has drained; returns the final cycle."""
        return self.engine.run_until(
            lambda: self.scheduler.all_idle,
            max_cycles=max_cycles,
            check_every=check_every,
        )

    def run_kernels(
        self, kernels: Iterable[Kernel], max_cycles: int = 20_000_000
    ) -> Dict[str, int]:
        """Launch each kernel on its own stream, run, return wall cycles.

        Returns a map kernel name -> completion cycle observed at the
        polling granularity (the coarse per-kernel 'execution time' the
        reverse-engineering experiments compare).
        """
        kernels = list(kernels)
        start = self.engine.cycle
        for kernel in kernels:
            self.launch(kernel)
        finish: Dict[str, int] = {}
        remaining = set(kernel.name for kernel in kernels)

        def poll() -> bool:
            for kernel in kernels:
                if kernel.name in remaining and kernel.done:
                    finish[kernel.name] = self.engine.cycle - start
                    remaining.discard(kernel.name)
            return not remaining

        self.engine.run_until(poll, max_cycles=max_cycles, check_every=16)
        return finish

    # -- memory preparation -------------------------------------------- #
    def preload_l2(self, addresses: Iterable[int]) -> None:
        """Install lines in their L2 slices so accesses always hit.

        The covert channel preloads its probe arrays (Section 4.2: "all
        memory requests access data that is loaded into the L2 cache").
        """
        config = self.config
        for address in addresses:
            line = (address // config.l2_line_bytes) * config.l2_line_bytes
            self.l2_slices[config.address_to_slice(address)].preload(line)

    def preload_region(self, base: int, size_bytes: int) -> None:
        """Preload every line in ``[base, base+size_bytes)``."""
        line = self.config.l2_line_bytes
        start = (base // line) * line
        self.preload_l2(range(start, base + size_bytes, line))

    # -- introspection --------------------------------------------------- #
    @property
    def validator(self):
        """The attached invariant checker, or None when validation is off."""
        return self._validator

    def assert_drained(self, max_cycles: int = 100_000) -> None:
        """Step until every injected packet is delivered, then audit.

        Posted writes can still be crossing the NoC when the last warp
        retires (the warp does not wait for the write acknowledgement), so
        a conservation check at ``run()``-exit must first drain the
        network.  Raises ``InvariantViolation`` if packets remain after
        ``max_cycles`` or a final audit fails.  No-op without a validator.
        """
        checker = self._validator
        if checker is None:
            return
        try:
            self.engine.run_until(
                lambda: checker.in_flight_count == 0,
                max_cycles=max_cycles,
                check_every=16,
            )
        except TimeoutError:
            pass  # check_drained below reports the stuck packets
        checker.check_drained(self.engine.cycle)
        checker.audit(self.engine.cycle)

    def smid_of_block(self, kernel: Kernel, block_id: int) -> Optional[int]:
        """What ``%smid`` returned for a dispatched block."""
        return kernel.blocks[block_id].sm_id

    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @property
    def all_idle(self) -> bool:
        """Every stream on this device has drained."""
        return self.scheduler.all_idle
