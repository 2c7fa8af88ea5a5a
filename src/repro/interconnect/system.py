"""A multi-GPU system: N devices joined by an NVLink-class fabric.

:class:`MultiGpuSystem` generalizes the single :class:`GpuDevice` to a
node of several devices sharing one simulation engine.  The fabric is
assembled from the same NoC building blocks as the on-chip network:

* every device gets two egress queues toward the fabric (request
  injection from its SMs, read replies from its L2 remote VOQs),
* every topology node gets a :class:`~repro.noc.crossbar.Crossbar`
  router arbitrating those egress queues and incoming link RX queues
  onto outgoing links or local delivery,
* every directed link gets a :class:`~repro.interconnect.link.LinkPipe`
  modeling serialization bandwidth and flight latency,
* every device gets a :class:`~repro.interconnect.link.FabricIngress`
  shim landing delivered packets in its L2 slices / reply path.

All devices tick on one shared engine, so the lockstep oracle can
digest-compare a whole system across engine strategies exactly like a
single device, and ``engine.reset()`` restores the entire node.

Example::

    system = MultiGpuSystem(small_config(), LinkConfig(num_devices=2))
    gpu0, gpu1 = system.devices
    gpu1.preload_region(base, size)          # remote data lives in GPU1 L2
    gpu0.launch(kernel_with_remote_memops)   # MemOp(device=1) goes over NVLink
    system.run()
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import GpuConfig, LinkConfig, VOLTA_V100
from ..gpu.device import GpuDevice
from ..noc.buffer import PacketQueue
from ..noc.crossbar import Crossbar
from ..noc.packet import Packet
from ..sim.engine import Engine
from .link import FabricIngress, LinkPipe
from .topology import FabricTopology, build_topology


class MultiGpuSystem:
    """``link.num_devices`` GPUs joined by a configurable fabric."""

    def __init__(
        self,
        config: GpuConfig = VOLTA_V100,
        link: Optional[LinkConfig] = None,
        l1_enabled: bool = False,
        seed_salt: int = 0,
    ) -> None:
        self.config = config
        self.link = link if link is not None else LinkConfig()
        # Link buffers count flits and a packet enters one whole, so a
        # buffer smaller than the largest packet would wedge its link.
        largest = max(
            config.read_request_flits, config.write_request_flits,
            config.read_reply_flits, config.write_reply_flits,
        )
        if self.link.link_buffer_depth < largest:
            raise ValueError(
                f"link_buffer_depth {self.link.link_buffer_depth} flits "
                f"is smaller than the largest fabric packet ({largest} "
                "flits); no such packet could ever cross a link"
            )
        self.topology: FabricTopology = build_topology(self.link)
        self.engine = Engine(strategy=config.engine_strategy)
        #: The member devices; ``devices[d].device_id == d``.
        self.devices: List[GpuDevice] = [
            GpuDevice(
                config,
                l1_enabled=l1_enabled,
                # Distinct per-device clock/SM jitter streams, offset by
                # the caller's salt (sweep points re-salt whole systems).
                seed_salt=(seed_salt << 6) + d,
                engine=self.engine,
                device_id=d,
                fabric=True,
            )
            for d in range(self.link.num_devices)
        ]
        for device in self.devices:
            device._cross_deliver = self._deliver_cross
        self._build_fabric()
        # Single-slot engine hooks: the devices declined them (shared
        # engine), so the system installs fan-outs over all devices.
        self.engine.on_reset = self._on_engine_reset
        hubs = [d.telemetry for d in self.devices if d.telemetry is not None]
        if hubs:

            def _note_fast_forward(start: int, stop: int) -> None:
                for hub in hubs:
                    hub.note_fast_forward(start, stop)

            self.engine.on_fast_forward = _note_fast_forward
        if config.metrics_enabled:
            # One engine, one hot loop: attribute its signals to device
            # 0's registry (labeled ``device=0``).
            self.engine.profiler = self.devices[0].profiler

    # ------------------------------------------------------------------ #
    # Fabric construction.
    # ------------------------------------------------------------------ #
    def _build_fabric(self) -> None:
        config = self.config
        link = self.link
        topo = self.topology
        cap = link.link_buffer_depth

        # Per directed link: TX on the sending node, RX on the receiving
        # node, and the serializing pipe between them.
        self._tx: Dict[tuple, PacketQueue] = {}
        self._rx: Dict[tuple, PacketQueue] = {}
        self.link_pipes: List[LinkPipe] = []
        for edge in topo.links:
            a, b = edge
            tx = PacketQueue(f"link{a}-{b}.tx", cap)
            rx = PacketQueue(f"link{a}-{b}.rx", cap)
            self._tx[edge] = tx
            self._rx[edge] = rx
            self.link_pipes.append(
                LinkPipe(
                    f"link{a}-{b}",
                    tx,
                    rx,
                    width=link.link_width,
                    latency=link.link_latency,
                )
            )

        # Per device: the router's local-delivery queue and ingress shim.
        self.delivery_queues: List[PacketQueue] = [
            PacketQueue(f"d{d}.fab.deliver", cap * 2)
            for d in range(topo.num_devices)
        ]
        self.ingress: List[FabricIngress] = [
            FabricIngress(
                f"d{d}.fab.ingress", self.delivery_queues[d], self.devices[d]
            )
            for d in range(topo.num_devices)
        ]

        # Per node: a crossbar router.  Link *bandwidth* lives in the
        # pipes' serializers, so the router width is the generous on-chip
        # crossbar width — contention shows up as TX-queue back-pressure,
        # not router starvation.
        self.routers: List[Crossbar] = []
        for node in range(topo.num_nodes):
            is_device = node < topo.num_devices
            out_edges = [e for e in topo.links if e[0] == node]
            in_edges = [e for e in topo.links if e[1] == node]
            inputs: List[PacketQueue] = []
            if is_device:
                device = self.devices[node]
                inputs.append(device.fabric_inject)
                inputs.append(device.fabric_reply)
            inputs.extend(self._rx[e] for e in in_edges)
            outputs: List[PacketQueue] = [self._tx[e] for e in out_edges]
            out_index = {e[1]: i for i, e in enumerate(out_edges)}
            local_index = None
            if is_device:
                local_index = len(outputs)
                outputs.append(self.delivery_queues[node])
            self.routers.append(
                Crossbar(
                    f"fab{node}.router",
                    inputs,
                    outputs,
                    route=self._make_route(node, out_index, local_index),
                    width=config.xbar_width,
                    policy_name=link.arbitration,
                    seed=config.seed + 500 + node,
                    stats=(self.devices[node].stats if is_device else None),
                )
            )

        # Registration order is the fabric pipeline order, appended after
        # every device's own components (deterministic across builds, as
        # the digest-positional lockstep oracle requires).
        self.engine.register_all(self.routers)
        self.engine.register_all(self.link_pipes)
        self.engine.register_all(self.ingress)

        if config.engine_strategy == "active":
            # Sparse live-input ticks, which also park a router while
            # every live head waits for a credit-stalled TX queue;
            # ``naive`` keeps the scalar reference tick.
            for router in self.routers:
                router._sparse = True

        # Fabric observability: each link's utilization series and its
        # TX/RX occupancy meters land on the hub of the link's device
        # endpoint (every edge touches at least one device in all three
        # topologies; for device-to-device edges the *sender* owns the
        # link, matching the on-chip "egress mux owns the wire" idiom).
        # No-op when telemetry is disabled — hubs are None and queues
        # keep their `meter is None` fast path.
        for edge, pipe in zip(topo.links, self.link_pipes):
            a, b = edge
            hub_node = a if a < topo.num_devices else b
            hub = self.devices[hub_node].telemetry
            if hub is None:
                continue
            pipe.attach_telemetry(hub)
            hub.timeline.register_queue(self._tx[edge])
            hub.timeline.register_queue(self._rx[edge])
        for d in range(topo.num_devices):
            hub = self.devices[d].telemetry
            if hub is None:
                continue
            device = self.devices[d]
            hub.timeline.register_queue(self.delivery_queues[d])
            if device.fabric_inject is not None:
                hub.timeline.register_queue(device.fabric_inject)
            if device.fabric_reply is not None:
                hub.timeline.register_queue(device.fabric_reply)

        # Fabric integrity: a dedicated checker for everything past the
        # device edge (routers, link credit flow, delivery queues) —
        # each device already audits its own interior via
        # InvariantChecker.attach.  Registered last on the shared
        # engine, so audits see settled end-of-cycle fabric state.
        self._validator = None
        if config.validate_enabled:
            from ..validate.invariants import InvariantChecker

            InvariantChecker.attach_system(self)

    def _make_route(
        self,
        node: int,
        out_index: Dict[int, int],
        local_index: Optional[int],
    ) -> Callable[[Packet], int]:
        next_hop = self.topology.next_hop[node]

        def route(packet: Packet) -> int:
            # Replies travel toward the issuing device, requests toward
            # the serving device.
            target = packet.src_device if packet.is_reply else packet.dst_device
            if target == node:
                return local_index
            return out_index[next_hop[target]]

        return route

    # ------------------------------------------------------------------ #
    # Cross-device plumbing.
    # ------------------------------------------------------------------ #
    def _deliver_cross(self, packet: Packet, cycle: int) -> None:
        """Completion owed to a foreign device (posted-write credits).

        Remote posted writes follow the local convention — the ack is
        free and instantaneous at L2 acceptance.  Timed remote *reads*
        never come through here: their replies ride the fabric back and
        pay serialization + flight latency in both directions.
        """
        self.devices[packet.src_device]._deliver_reply(packet, cycle)

    def _on_engine_reset(self) -> None:
        for device in self.devices:
            device._reset_observability()

    # ------------------------------------------------------------------ #
    # Public API (mirrors GpuDevice where it makes sense).
    # ------------------------------------------------------------------ #
    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @property
    def all_idle(self) -> bool:
        """Every stream on every device has drained."""
        return all(device.all_idle for device in self.devices)

    def device(self, index: int) -> GpuDevice:
        return self.devices[index]

    def __len__(self) -> int:
        return len(self.devices)

    def run(self, max_cycles: int = 20_000_000, check_every: int = 32) -> int:
        """Step until every device's streams drain; returns final cycle."""
        return self.engine.run_until(
            lambda: self.all_idle,
            max_cycles=max_cycles,
            check_every=check_every,
        )

    def reset(self) -> None:
        """Restore the whole node to its post-construction state."""
        self.engine.reset()
