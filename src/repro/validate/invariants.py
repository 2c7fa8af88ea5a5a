"""Conservation invariants for the cycle-level model.

Every number the repo reports rests on flit-level accounting spread over
dozens of components, and the covert channel lives in timing deltas small
enough that a silent bug — a lost flit, a double-committed packet, a
reservation that never drains — would corrupt results without failing the
end-to-end tests.  The :class:`InvariantChecker` is a regular engine
:class:`~repro.sim.engine.Component`, registered last so it observes
settled end-of-cycle state, that audits:

* **packet conservation** — every packet injected by an SM is delivered
  back exactly once (read replies and write acknowledgements through
  ``GpuDevice._deliver_reply``; posted writes at L2 acceptance), never
  zero times and never twice;
* **queue accounting** — every :class:`~repro.noc.buffer.PacketQueue`
  keeps ``0 <= used + reserved <= capacity`` with ``used`` equal to the
  flits actually queued;
* **reserve/commit matching** — each switch's per-port ``_progress`` /
  ``_reserved`` state is self-consistent, and every queue's reserved
  flits are exactly the sum of its upstream switches' in-flight packets,
  so a ``reserve`` that is never matched by a ``commit`` (or matched
  twice) is caught at the first audit after it happens;
* **live-list consistency** — each switch's queue-maintained live list
  (``_live``, ``_heads``) matches its input queues exactly and
  ``_max_flits`` bounds every head, so a missed head-change
  notification is caught even though the lockstep oracle's digests
  leave that derived state out;
* **park consistency** — under the ``active`` strategy a switch the
  engine has parked holds no head that could move: every live port is
  unreserved and its head exceeds its routed output's free space, and a
  parked non-switch consumer holds input only with a timer pending or
  its ``_blocked`` flag set, so a lost wake-up is caught at the first
  audit after it happens.

Violations raise a structured :class:`InvariantViolation` naming the
cycle, the component, and the failed invariant.  The checker never
mutates model state, so validated runs are bit-identical to unvalidated
ones; when ``GpuConfig.validate_enabled`` is off no checker exists and
the hook sites cost one ``is not None`` branch (the telemetry pattern).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..noc.buffer import PacketQueue
from ..noc.crossbar import Crossbar
from ..noc.mux import Mux
from ..noc.packet import Packet
from ..sim.engine import Component


class InvariantViolation(Exception):
    """A conservation invariant failed.

    Attributes
    ----------
    cycle:
        Engine cycle at which the inconsistency was observed.
    component:
        Name of the queue/switch/checker stage that failed.
    kind:
        Machine-readable invariant tag (``"capacity"``,
        ``"used-accounting"``, ``"reservation-leak"``,
        ``"progress-consistency"``, ``"live-consistency"``,
        ``"park-consistency"``, ``"link-credit"``,
        ``"double-delivery"``, ``"unknown-delivery"``,
        ``"duplicate-injection"``, ``"undelivered"``).
    detail:
        Human-readable description of the observed state.
    """

    def __init__(self, cycle: int, component: str, kind: str, detail: str):
        self.cycle = cycle
        self.component = component
        self.kind = kind
        self.detail = detail
        super().__init__(
            f"[cycle {cycle}] {component}: {kind}: {detail}"
        )


class InvariantChecker(Component):
    """Audits queue/switch/packet conservation every ``check_every`` cycles.

    Build one with :meth:`attach`, which wires it into a
    :class:`~repro.gpu.device.GpuDevice`; with :meth:`attach_system`,
    which wires a fabric-boundary checker into a
    :class:`~repro.interconnect.MultiGpuSystem`; or construct directly
    and call :meth:`watch_queue` / :meth:`watch_switch` /
    :meth:`watch_link` / :meth:`watch_consumer` for bare-component
    tests.
    """

    name = "validate.checker"

    def __init__(self, check_every: int = 1) -> None:
        if check_every <= 0:
            raise ValueError("check_every must be positive")
        self.check_every = check_every
        self.queues: List[PacketQueue] = []
        self.switches: List = []  # Mux and Crossbar instances
        self.links: List = []  # LinkPipe-shaped credit holders
        self.consumers: List[Tuple[Component, PacketQueue]] = []
        #: request uid -> (inject cycle, kind, flits) for in-flight packets.
        self._in_flight: Dict[int, Tuple[int, str, int]] = {}
        self.injected = 0
        self.delivered = 0
        self.checks_run = 0
        self.violations = 0
        self._next_check = 0

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #
    @classmethod
    def attach(cls, device) -> "InvariantChecker":
        """Wire a checker into every queue, switch, and SM of ``device``.

        Registered on the engine *after* every model component (and after
        the telemetry probe, if any), so each audit sees the settled
        state of the cycle it runs in.
        """
        checker = cls(check_every=device.config.validate_interval)
        for queue in device.inject_queues:
            checker.watch_queue(queue)
        for queue in device.tpc_queues:
            checker.watch_queue(queue)
        for queue in device.gpc_queues:
            checker.watch_queue(queue)
        for queue in device.l2_request_queues:
            checker.watch_queue(queue)
        for voqs in device.l2_reply_voqs:
            for queue in voqs:
                checker.watch_queue(queue)
        for queue in device.gpc_reply_queues:
            checker.watch_queue(queue)
        for mux in device.tpc_muxes:
            checker.watch_switch(mux)
        for mux in device.gpc_muxes:
            checker.watch_switch(mux)
        checker.watch_switch(device.request_xbar)
        for switch in device.reply_muxes:
            checker.watch_switch(switch)
        for l2_slice in device.l2_slices:
            checker.watch_consumer(l2_slice, l2_slice.request_queue)
        for distributor in device.reply_distributors:
            checker.watch_consumer(distributor, distributor.input_queue)
        for sm in device.sms:
            sm._validator = checker
        device._validator = checker
        device.engine.register(checker)
        return checker

    @classmethod
    def attach_system(cls, system) -> "InvariantChecker":
        """Wire a *fabric* checker into a multi-GPU system.

        Each member device already carries its own checker (wired by
        :meth:`attach` at device construction when
        ``GpuConfig.validate_enabled``); this one covers everything past
        the device edge, where conservation previously went unaudited:

        * the per-node fabric routers (plain :class:`Crossbar`\\ s, so
          the switch audit applies unchanged),
        * every link's TX/RX queue and the serializing
          :class:`~repro.interconnect.link.LinkPipe` between them — the
          pipe's reserve-at-serialization-start / commit-at-arrival
          credit flow is audited exactly like a switch's in-flight
          reservations via :meth:`watch_link`,
        * the local-delivery queues feeding each ingress shim, and
        * each device's fabric egress queues (``fabric_inject`` is
          push-only, ``fabric_reply`` is reserved into by the device's
          ``remote_reply_mux``, which therefore joins the watch set so
          its demand is accounted).

        Registered on the shared engine after every fabric component, so
        audits see settled end-of-cycle state.
        """
        checker = cls(check_every=system.config.validate_interval)
        for device in system.devices:
            if device.fabric_inject is not None:
                checker.watch_queue(device.fabric_inject)
            if device.fabric_reply is not None:
                checker.watch_queue(device.fabric_reply)
            if device.remote_reply_mux is not None:
                checker.watch_switch(device.remote_reply_mux)
        for queue in system._tx.values():
            checker.watch_queue(queue)
        for queue in system._rx.values():
            checker.watch_queue(queue)
        for queue in system.delivery_queues:
            checker.watch_queue(queue)
        for router in system.routers:
            checker.watch_switch(router)
        for pipe in system.link_pipes:
            checker.watch_link(pipe)
            checker.watch_consumer(pipe, pipe.tx)
        for ingress in system.ingress:
            checker.watch_consumer(ingress, ingress.queue)
        system._validator = checker
        system.engine.register(checker)
        return checker

    def watch_queue(self, queue: PacketQueue) -> None:
        self.queues.append(queue)

    def watch_switch(self, switch) -> None:
        if not isinstance(switch, (Mux, Crossbar)):
            raise TypeError(f"cannot audit {type(switch).__name__}")
        self.switches.append(switch)

    def watch_link(self, pipe) -> None:
        """Audit a link pipe's credit flow (reserve/commit over RX).

        Accepts any component exposing the ``reserved_demand()`` /
        ``_in_flight`` contract of
        :class:`~repro.interconnect.link.LinkPipe`.
        """
        if not hasattr(pipe, "reserved_demand") or not hasattr(
            pipe, "_in_flight"
        ):
            raise TypeError(f"cannot audit {type(pipe).__name__} as a link")
        self.links.append(pipe)

    def watch_consumer(self, component: Component, queue: PacketQueue) -> None:
        """Audit that non-switch ``component`` never parks on ``queue``'s input."""
        self.consumers.append((component, queue))

    # ------------------------------------------------------------------ #
    # Conservation hooks (called from SM inject / device deliver).
    # ------------------------------------------------------------------ #
    def note_inject(self, packet: Packet, cycle: int) -> None:
        """An SM pushed ``packet`` into its injection queue."""
        uid = packet.uid
        if uid in self._in_flight:
            self._raise(
                cycle, f"sm{packet.src_sm}", "duplicate-injection",
                f"packet uid={uid} addr={packet.address:#x} injected twice"
            )
        self._in_flight[uid] = (cycle, packet.kind, packet.flits)
        self.injected += 1

    def note_deliver(self, packet: Packet, cycle: int) -> None:
        """A request completed back at its SM (reply or posted-write ack).

        ``packet`` is either the reply (carrying ``req_uid``) or, for
        posted writes acknowledged at L2 acceptance, the request itself.
        """
        uid = packet.req_uid if packet.is_reply else packet.uid
        entry = self._in_flight.pop(uid, None)
        if entry is None:
            kind = (
                "double-delivery" if uid >= 0 else "unknown-delivery"
            )
            self._raise(
                cycle, f"sm{packet.src_sm}", kind,
                f"delivery for request uid={uid} "
                f"addr={packet.address:#x} that is not in flight "
                f"(never injected, or already delivered once)"
            )
        self.delivered += 1

    @property
    def in_flight_count(self) -> int:
        """Packets injected but not yet delivered."""
        return len(self._in_flight)

    def in_flight_report(self) -> List[Tuple[int, int, str, int]]:
        """``(uid, inject_cycle, kind, flits)`` rows, oldest first."""
        return sorted(
            (uid, cycle, kind, flits)
            for uid, (cycle, kind, flits) in self._in_flight.items()
        )

    def check_drained(self, cycle: int) -> None:
        """Raise unless every injected packet has been delivered."""
        if not self._in_flight:
            return
        oldest = self.in_flight_report()[:4]
        self._raise(
            cycle, self.name, "undelivered",
            f"{len(self._in_flight)} packet(s) injected but never "
            f"delivered; oldest: {oldest}"
        )

    # ------------------------------------------------------------------ #
    # Per-cycle audit.
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        if cycle < self._next_check:
            return
        self._next_check = cycle + self.check_every
        self.checks_run += 1
        self.audit(cycle)

    def audit(self, cycle: int) -> None:
        """Audit every watched switch, link, and queue, raising on failure."""
        expected_reserved: Dict[int, int] = {}
        for switch in self.switches:
            self._audit_switch(cycle, switch)
            for queue, flits in switch.reserved_demand():
                key = id(queue)
                expected_reserved[key] = expected_reserved.get(key, 0) + flits
        for pipe in self.links:
            self._audit_link(cycle, pipe)
            for queue, flits in pipe.reserved_demand():
                key = id(queue)
                expected_reserved[key] = expected_reserved.get(key, 0) + flits
        for queue in self.queues:
            self._audit_queue(cycle, queue, expected_reserved.get(id(queue), 0))
        for component, queue in self.consumers:
            if queue:
                self._audit_parked_consumer(cycle, component, queue)

    def _audit_switch(self, cycle: int, switch) -> None:
        progress = switch._progress
        reserved = switch._reserved
        inputs = switch.inputs
        live = [port for port, queue in enumerate(inputs) if queue]
        if switch._live != live:
            self._raise(
                cycle, switch.name, "live-consistency",
                f"live list {switch._live} but nonempty inputs are {live}"
            )
        for port, queue in enumerate(inputs):
            head = queue.head()
            if switch._heads[port] is not head:
                self._raise(
                    cycle, switch.name, "live-consistency",
                    f"port {port}: cached head is not the input queue's "
                    f"head (missed head-change notification?)"
                )
            if head is not None and head.flits > switch._max_flits:
                self._raise(
                    cycle, switch.name, "live-consistency",
                    f"port {port}: head of {head.flits} flits exceeds "
                    f"the cached bound _max_flits={switch._max_flits}"
                )
        self._audit_parked(cycle, switch)
        for port in range(len(inputs)):
            if reserved[port] != (progress[port] > 0):
                self._raise(
                    cycle, switch.name, "progress-consistency",
                    f"port {port}: reserved={reserved[port]} but "
                    f"progress={progress[port]} (a reservation must be "
                    f"held exactly while a packet is mid-transmission)"
                )
            if progress[port] > 0:
                head = inputs[port].head()
                if head is None:
                    self._raise(
                        cycle, switch.name, "progress-consistency",
                        f"port {port}: {progress[port]} flit(s) of "
                        f"progress but the input queue is empty (head "
                        f"popped without commit?)"
                    )
                elif progress[port] >= head.flits:
                    self._raise(
                        cycle, switch.name, "progress-consistency",
                        f"port {port}: progress {progress[port]} >= "
                        f"packet length {head.flits} (missed completion)"
                    )

    def _audit_parked(self, cycle: int, switch) -> None:
        """A parked switch must have no head that could move.

        Only an ``active`` engine parks; a switch outside its active set
        must be waiting for output space on every live port, or the wake
        that should have un-parked it was lost.
        """
        engine = switch._engine
        if (
            engine is None
            or engine.strategy != "active"
            or switch._engine_index in engine._active
        ):
            return
        for port in switch._live:
            head = switch._heads[port]
            if isinstance(switch, Mux):
                output = switch.output
            else:
                output = switch.outputs[switch.route(head)]
            if switch._reserved[port] or head.flits <= output.free_flits:
                self._raise(
                    cycle, switch.name, "park-consistency",
                    f"parked, but port {port} can move its head "
                    f"(reserved={switch._reserved[port]}, {head.flits} "
                    f"flits, {output.name} has {output.free_flits} free; "
                    f"lost wake-up?)"
                )

    def _audit_parked_consumer(
        self, cycle: int, component: Component, queue: PacketQueue
    ) -> None:
        """Parked on input with no timer and not blocked: a lost wake-up."""
        engine = component._engine
        if engine is None or engine.strategy != "active":
            return
        index = component._engine_index
        if (
            index in engine._active
            or engine._timer_at[index] is not None
            or getattr(component, "_blocked", False)
        ):
            return
        self._raise(
            cycle, component.name, "park-consistency",
            f"parked with {len(queue)} packet(s) in {queue.name}, no "
            f"pending timer and not blocked (lost wake-up?)"
        )

    def _audit_link(self, cycle: int, pipe) -> None:
        """Sanity of a link pipe's in-flight window.

        The RX-side credit match itself (reserved flits == in-flight
        demand) is enforced by :meth:`_audit_queue` through the pooled
        ``expected_reserved`` map, exactly as for switches; here we check
        the window's own shape: positive packet lengths and FIFO arrival
        order (the serializer admits one packet at a time, so arrival
        cycles must be non-decreasing).
        """
        last_arrival = None
        for arrival, packet in pipe._in_flight:
            if packet.flits <= 0:
                self._raise(
                    cycle, pipe.name, "link-credit",
                    f"in-flight packet uid={packet.uid} has "
                    f"{packet.flits} flits"
                )
            if last_arrival is not None and arrival < last_arrival:
                self._raise(
                    cycle, pipe.name, "progress-consistency",
                    f"in-flight arrivals out of order: {arrival} after "
                    f"{last_arrival} (serializer admitted out of turn)"
                )
            last_arrival = arrival

    def _audit_queue(
        self, cycle: int, queue: PacketQueue, expected_reserved: int
    ) -> None:
        used = queue._used_flits
        reserved = queue._reserved_flits
        if used < 0 or reserved < 0:
            self._raise(
                cycle, queue.name, "capacity",
                f"negative accounting: used={used} reserved={reserved}"
            )
        if used + reserved > queue.capacity_flits:
            self._raise(
                cycle, queue.name, "capacity",
                f"used({used}) + reserved({reserved}) exceeds "
                f"capacity({queue.capacity_flits})"
            )
        actual = sum(packet.flits for packet in queue._queue)
        if used != actual:
            self._raise(
                cycle, queue.name, "used-accounting",
                f"used_flits={used} but queued packets hold {actual} "
                f"flits"
            )
        if reserved != expected_reserved:
            self._raise(
                cycle, queue.name, "reservation-leak",
                f"reserved_flits={reserved} but upstream switches hold "
                f"in-flight packets for {expected_reserved} flits (every "
                f"reserve must be matched by exactly one commit)"
            )

    def _raise(
        self, cycle: int, component: str, kind: str, detail: str
    ) -> None:
        self.violations += 1
        raise InvariantViolation(cycle, component, kind, detail)

    # ------------------------------------------------------------------ #
    # Engine contract.
    # ------------------------------------------------------------------ #
    def idle_until(self, cycle: int) -> Optional[int]:
        """Park until the next audit cycle (``check_every`` hops).

        With ``check_every == 1`` the checker stays in the active set —
        validated runs trade quiescence fast-forward for per-cycle
        coverage; larger intervals let idle stretches fast-forward in
        audit-sized hops, exactly like the telemetry probe.
        """
        return None if self._next_check <= cycle + 1 else self._next_check

    def reset(self) -> None:
        self._in_flight.clear()
        self.injected = 0
        self.delivered = 0
        self.checks_run = 0
        self.violations = 0
        self._next_check = 0
