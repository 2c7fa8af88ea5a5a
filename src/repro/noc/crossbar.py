"""Crossbar between the GPC channels and the L2 slices.

Public NVIDIA block diagrams show a crossbar in the middle of the GPU; the
paper's reverse engineering concludes it interconnects the GPC channels
with the partitioned L2 (Section 3.1).  The model is an input-queued
crossbar with head-of-line semantics: each input port forwards its head
packet toward the output that the routing function selects, subject to a
per-input and per-output flit budget per cycle, with per-output arbitration
among competing inputs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import XBAR_GRANT, XBAR_XFER
from .arbiter import ArbitrationPolicy, make_policy
from .buffer import LiveInputs, PacketQueue
from .packet import Packet


class Crossbar(LiveInputs, Component):
    """Input-queued crossbar with per-port flit budgets.

    Parameters
    ----------
    route:
        Maps a packet to its output port index.
    width:
        Flits per cycle each output port can accept.
    input_width:
        Flits per cycle each input port can send (defaults to ``width``;
        the reply crossbar uses a wider input so the narrow per-GPC
        output channel does not throttle the L2 slices themselves).
    policy_name / seed:
        Arbitration policy instantiated per output port.
    """

    def __init__(
        self,
        name: str,
        inputs: List[PacketQueue],
        outputs: List[PacketQueue],
        route: Callable[[Packet], int],
        width: int,
        input_width: Optional[int] = None,
        policy_name: str = "rr",
        seed: int = 0,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.route = route
        self.width = width
        self.input_width = width if input_width is None else input_width
        #: The registry's counter dict, bumped directly on the hot path.
        self._counters = None if stats is None else stats.counters
        self._packets_key = f"{name}.packets"
        self._policies: List[ArbitrationPolicy] = [
            make_policy(policy_name, len(inputs), seed=seed + i)
            for i in range(len(outputs))
        ]
        #: A lone live input under a flit-invariant policy is served by
        #: :meth:`_run_sole` (see :attr:`ArbitrationPolicy.flit_invariant`).
        self._invariant = self._policies[0].flit_invariant
        self._progress: List[int] = [0] * len(inputs)
        self._reserved: List[bool] = [False] * len(inputs)
        # Live input ports and their heads, kept by the input queues for
        # every strategy (see LiveInputs).
        self._attach_inputs(inputs)
        #: Set by a sparse tick whose first round grouped no input (every
        #: live head waits for space at its routed output); a pop of any
        #: output clears it and wakes the crossbar.
        self._blocked = False
        for queue in outputs:
            queue.attach_producer(self)
        #: Device sets this under ``strategy="active"``: tick via
        #: :meth:`_tick_sparse` (live-input iteration) instead of the
        #: scalar loop, which ``naive`` keeps as the reference.  The
        #: scalar tick rebuilds a per-output candidate list over every
        #: port each round (48 list allocations per round at Table-1
        #: scale); the sparse tick walks only the live list.
        self._sparse = False
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0
        self._tl_out: Optional[List] = None

    def attach_telemetry(self, hub) -> None:
        """Opt this crossbar into tracing and per-output link series."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)
        self._tl_out = [
            hub.timeline.register_link(f"{self.name}.out{out}", self.width)
            for out in range(len(self.outputs))
        ]

    def tick(self, cycle: int) -> None:
        """Move flits across and write the park horizon.

        The crossbar is purely reactive: it parks (``FOREVER``) when
        every input queue is empty, or when the sparse tick found every
        live head blocked on space at its routed output (``_blocked``).
        A commit to an input (which wakes the queue's consumer) or an
        output's pop (which wakes its blocked producer) ends the wait.
        """
        if self._sparse:
            live = self._live
            if not live:
                self._until = FOREVER
            elif len(live) == 1 and self._invariant:
                self._run_sole(cycle, live[0])
            else:
                self._tick_sparse(cycle)
            return
        num_inputs = len(self.inputs)
        input_budget = [self.input_width] * num_inputs
        output_budget = [self.width] * len(self.outputs)
        # Heads and their routed outputs, refreshed as packets complete.
        while True:
            moved = False
            heads: List[Optional[Packet]] = [q.head() for q in self.inputs]
            # Group candidate inputs by output port.
            per_output: List[List[int]] = [[] for _ in self.outputs]
            for port, head in enumerate(heads):
                if head is None or input_budget[port] <= 0:
                    continue
                out = self.route(head)
                if output_budget[out] <= 0:
                    continue
                if self._reserved[port] or self.outputs[out].can_reserve(
                    head.flits
                ):
                    per_output[out].append(port)
            for out, candidates in enumerate(per_output):
                if not candidates:
                    continue
                policy = self._policies[out]
                allowed = policy.allowed_inputs(cycle)
                if allowed is not None:
                    candidates = [p for p in candidates if p in allowed]
                    if not candidates:
                        continue
                port = policy.choose(candidates, heads, cycle)
                packet = heads[port]
                assert packet is not None
                if not self._reserved[port]:
                    self.outputs[out].reserve(packet.flits)
                    self._reserved[port] = True
                if self._tracer is not None:
                    if self._progress[port] == 0:
                        self._tracer.emit(cycle, XBAR_GRANT, self._tl_id,
                                          port, packet.uid, out)
                    self._tl_out[out].add(cycle, 1)
                self._progress[port] += 1
                input_budget[port] -= 1
                output_budget[out] -= 1
                last = self._progress[port] >= packet.flits
                policy.note_flit(port, packet, last)
                if last:
                    self.inputs[port].pop()
                    self.outputs[out].commit(packet)
                    self._progress[port] = 0
                    self._reserved[port] = False
                    if self._counters is not None:
                        self._counters[self._packets_key] += 1
                    if self._tracer is not None:
                        self._tracer.emit(cycle, XBAR_XFER, self._tl_id,
                                          port, packet.uid, out)
                moved = True
            if not moved:
                break
        self._until = FOREVER if self._blocked or not self._live else None

    def _tick_sparse(self, cycle: int) -> None:
        """Slot-assignment tick walking only the live input ports.

        Semantics are identical to the scalar :meth:`tick` — same round
        structure, same ascending output order, same per-round candidacy
        — but the candidate grouping walks ``_live`` and reads
        ``_heads``, which the input queues keep current: a packet popped
        in one round has already exposed its successor (or left the live
        list) when the next round groups.  Under a flit-invariant
        policy ``allowed_inputs`` is not asked and a sole candidate is
        granted without calling the policy; a tick with one live input
        runs :meth:`_run_sole` instead.  A single-flit packet granted
        from scratch crosses whole, with one ``push``; a longer one
        reserves its output space at the first flit and commits at the
        last.

        A first round that groups nothing means no live head can move
        this cycle: the tick sets ``_blocked`` and parks the crossbar
        until an output pops or an input exposes a new head.
        """
        live = self._live
        inputs = self.inputs
        outputs = self.outputs
        route = self.route
        reserved = self._reserved
        progress = self._progress
        heads = self._heads
        policies = self._policies
        input_budget = [self.input_width] * len(inputs)
        output_budget = [self.width] * len(outputs)
        invariant = self._invariant
        tracer = self._tracer
        completed = 0
        blocked = True  # until a round groups a port
        while True:
            moved = False
            per_output: dict = {}
            for p in live:
                if input_budget[p] <= 0:
                    continue
                head = heads[p]
                out = route(head)
                if output_budget[out] <= 0:
                    continue
                if reserved[p] or head.flits <= outputs[out]._free:
                    per_output.setdefault(out, []).append(p)
            if not per_output:
                break
            blocked = False
            for out in sorted(per_output):
                candidates = per_output[out]
                policy = policies[out]
                if invariant:
                    if len(candidates) == 1:
                        port = candidates[0]
                    else:
                        port = policy.choose(candidates, heads, cycle)
                else:
                    allowed = policy.allowed_inputs(cycle)
                    if allowed is not None:
                        candidates = [p for p in candidates if p in allowed]
                        if not candidates:
                            continue
                    port = policy.choose(candidates, heads, cycle)
                packet = heads[port]
                sent = progress[port]
                if tracer is not None:
                    if sent == 0:
                        tracer.emit(cycle, XBAR_GRANT, self._tl_id,
                                    port, packet.uid, out)
                    self._tl_out[out].add(cycle, 1)
                input_budget[port] -= 1
                output_budget[out] -= 1
                moved = True
                if sent + 1 < packet.flits:
                    if not reserved[port]:
                        outputs[out].reserve(packet.flits)
                        reserved[port] = True
                    progress[port] = sent + 1
                    policy.note_flit(port, packet, False)
                    continue
                policy.note_flit(port, packet, True)
                inputs[port].pop()  # refreshes heads[port] and live
                if reserved[port]:
                    outputs[out].commit(packet)
                    progress[port] = 0
                    reserved[port] = False
                else:
                    outputs[out].push(packet)  # fit was checked
                completed += 1
                if tracer is not None:
                    tracer.emit(cycle, XBAR_XFER, self._tl_id,
                                port, packet.uid, out)
            if not moved:
                break
        self._blocked = blocked
        self._until = FOREVER if blocked or not live else None
        if completed and self._counters is not None:
            self._counters[self._packets_key] += completed

    def _run_sole(self, cycle: int, port: int) -> None:
        """:meth:`_tick_sparse` for one live input, as a flit run.

        Each round would group only ``port``, and its output's policy
        must grant a sole candidate, so no grouping is needed.  The head
        takes ``min(flits left, input budget, its output's budget)``
        flits; after a completion the next head goes on while input
        budget remains and it fits its own output's space and budget
        (kept per output).  A run that ends its packet reports one
        ``note_flit(True)``, and one that does not one
        ``note_flit(False)``; a packet that crosses whole in the run is
        one ``push``.
        """
        heads = self._heads
        packet = heads[port]
        reserved = self._reserved
        outputs = self.outputs
        route = self.route
        out = route(packet)
        if not reserved[port] and packet.flits > outputs[out]._free:
            self._blocked = True
            self._until = FOREVER
            return
        self._blocked = False
        progress = self._progress
        tracer = self._tracer
        pop = self.inputs[port].pop
        width = self.width
        budget = self.input_width
        spent = {}  # flits sent to each output this tick
        completed = 0
        while True:
            output = outputs[out]
            flits = packet.flits
            room = width - spent.get(out, 0)
            if room > budget:
                room = budget
            sent = progress[port]
            if tracer is not None and sent == 0:
                tracer.emit(cycle, XBAR_GRANT, self._tl_id,
                            port, packet.uid, out)
            policy = self._policies[out]
            n = flits - sent
            if n > room:
                if not reserved[port]:
                    output.reserve(flits)
                    reserved[port] = True
                progress[port] = sent + room
                if tracer is not None:
                    self._tl_out[out].add(cycle, room)
                policy.note_flit(port, packet, False)
                break
            if tracer is not None:
                self._tl_out[out].add(cycle, n)
            policy.note_flit(port, packet, True)
            pop()  # refreshes heads[port] and live
            if reserved[port]:
                output.commit(packet)
                progress[port] = 0
                reserved[port] = False
            else:
                output.push(packet)  # fit was checked
            completed += 1
            if tracer is not None:
                tracer.emit(cycle, XBAR_XFER, self._tl_id,
                            port, packet.uid, out)
            budget -= n
            spent[out] = spent.get(out, 0) + n
            packet = heads[port]
            if not budget or packet is None:
                break
            out = route(packet)
            if (spent.get(out, 0) >= width
                    or packet.flits > outputs[out]._free):
                break
        self._until = None if self._live else FOREVER
        if completed and self._counters is not None:
            self._counters[self._packets_key] += completed

    def reserved_demand(self):
        """Yield ``(output_queue, flits)`` per held output reservation.

        Mirrors :meth:`repro.noc.mux.Mux.reserved_demand`; the output a
        reservation was made against is recomputed from the head packet's
        route, which is stable while the packet sits at the head.
        """
        for port, held in enumerate(self._reserved):
            if held:
                head = self.inputs[port].head()
                if head is None:
                    yield self.outputs[0], 0
                else:
                    yield self.outputs[self.route(head)], head.flits

    def state_digest(self):
        """Progress/reservation state plus every attached queue."""
        return (
            tuple(self._progress),
            tuple(self._reserved),
            tuple(policy.state_digest() for policy in self._policies),
            tuple(queue.state_digest() for queue in self.inputs),
            tuple(queue.state_digest() for queue in self.outputs),
        )

    def reset(self) -> None:
        self._progress = [0] * len(self.inputs)
        self._reserved = [False] * len(self.inputs)
        self._blocked = False
        for policy in self._policies:
            policy.reset()
        for queue in self.inputs:
            queue.clear()
        if self._tl_out is not None:
            for series in self._tl_out:
                series.reset()
