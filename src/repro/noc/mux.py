"""N:1 concentrator mux — the shared resource behind the covert channel.

A :class:`Mux` merges several input :class:`PacketQueue` objects onto one
output queue with a per-cycle flit budget (``width``).  The TPC mux is a
2:1 mux of width 1 (no speedup: two SMs oversubscribe it 2x, giving the
Figure 2 contention).  The GPC mux is a 7:1 mux *with* speedup (width > 1),
which is why seven write-streaming TPCs only lose ~15% (Figure 5b).

Transmission uses virtual cut-through: output space for the whole packet is
reserved when its first flit crosses, and the packet is committed to the
output queue when its last flit crosses, i.e. a packet of F flits takes
ceil(F / width_share) cycles of channel occupancy.  A packet whose flits
all cross in one tick of the sparse paths is pushed whole instead.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import MUX_GRANT, MUX_XFER
from .arbiter import ArbitrationPolicy
from .buffer import LiveInputs, PacketQueue
from .packet import Packet


class Mux(LiveInputs, Component):
    """Arbitrated N:1 concentrator with a flit-per-cycle budget."""

    def __init__(
        self,
        name: str,
        inputs: List[PacketQueue],
        output: PacketQueue,
        width: int,
        policy: ArbitrationPolicy,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if policy.num_inputs != len(inputs):
            raise ValueError(
                f"{name}: policy built for {policy.num_inputs} inputs, "
                f"mux has {len(inputs)}"
            )
        self.name = name
        self.inputs = inputs
        self.output = output
        self.width = width
        self.policy = policy
        #: A lone live input under a flit-invariant policy is served by
        #: :meth:`_run_sole` (see :attr:`ArbitrationPolicy.flit_invariant`).
        self._invariant = policy.flit_invariant
        #: The registry's counter dict, bumped directly on the hot path.
        self._counters = None if stats is None else stats.counters
        # Counter keys are interned once: the flits counter is bumped on
        # every granted flit, and per-flit f-string formatting was
        # measurable at Table-1 scale.
        self._flits_key = f"{name}.flits"
        self._packets_key = f"{name}.packets"
        #: Flits already transmitted of each input's head packet.
        self._progress: List[int] = [0] * len(inputs)
        #: Whether output space is reserved for each input's head packet.
        self._reserved: List[bool] = [False] * len(inputs)
        # Live input ports and their heads, kept by the input queues for
        # every strategy (see LiveInputs), so the scalar reference tick
        # and reset keep them current too.
        self._attach_inputs(inputs)
        #: Set by a sparse tick whose live heads all wait for output
        #: space; the output's next pop clears it and wakes the mux.
        self._blocked = False
        output.attach_producer(self)
        # -- active-strategy sparse tick ---------------------------------- #
        #: Device sets this under ``strategy="active"``: tick via
        #: :meth:`_tick_sparse` (live-input iteration) instead of the
        #: full-width scalar loop, which ``naive`` keeps as the reference.
        self._sparse = False
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0
        self._tl_link = None

    def attach_telemetry(self, hub) -> None:
        """Opt this mux into event tracing and link-utilization series."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)
        self._tl_link = hub.timeline.register_link(self.name, self.width)

    def tick(self, cycle: int) -> None:
        """Move up to ``width`` flits and write the park horizon.

        The mux is purely reactive: it parks (``FOREVER``) when every
        input queue is empty, or when the sparse tick found every live
        head blocked on output space (``_blocked``).  A blocked tick is
        a no-op, and only two events end the wait: a commit to an input,
        which wakes the queue's consumer, and a pop of the output, which
        wakes its blocked producer.
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
        budget = self.width
        inputs = self.inputs
        allowed = self.policy.allowed_inputs(cycle)
        moved = 0
        while budget > 0:
            heads: List[Optional[Packet]] = [q.head() for q in inputs]
            candidates = [
                port
                for port, head in enumerate(heads)
                if head is not None and self._can_start(port, head)
            ]
            if allowed is not None:
                candidates = [p for p in candidates if p in allowed]
            if not candidates:
                break
            port = self.policy.choose(candidates, heads, cycle)
            packet = heads[port]
            assert packet is not None
            if not self._reserved[port]:
                self.output.reserve(packet.flits)
                self._reserved[port] = True
            if self._tracer is not None and self._progress[port] == 0:
                self._tracer.emit(cycle, MUX_GRANT, self._tl_id,
                                  port, packet.uid)
            self._progress[port] += 1
            budget -= 1
            moved += 1
            last = self._progress[port] >= packet.flits
            self.policy.note_flit(port, packet, last)
            if last:
                inputs[port].pop()
                self.output.commit(packet)
                self._progress[port] = 0
                self._reserved[port] = False
                if self._counters is not None:
                    self._counters[self._packets_key] += 1
                if self._tracer is not None:
                    self._tracer.emit(cycle, MUX_XFER, self._tl_id,
                                      port, packet.uid)
            if self._counters is not None:
                self._counters[self._flits_key] += 1
        if moved and self._tl_link is not None:
            self._tl_link.add(cycle, moved)
        self._until = FOREVER if self._blocked or not self._live else None

    def _tick_sparse(self, cycle: int) -> None:
        """Sparse tick: identical grants, candidacy from the live list.

        The scalar loop rebuilds its candidate list over every input on
        every flit of budget.  This tick starts from ``_live``, the
        nonempty ports the input queues maintain, keeps each port whose
        head holds a reservation or fits the output's free space, and
        then only patches that list after each grant.  Three facts make
        this exact:

        * ``_max_flits`` bounds every live head, so while the output has
          at least that much free space every live head fits and the
          fit filter is skipped;
        * within a tick only the granted port's head changes, so on
          packet completion only that port is re-read (and dropped if
          it is now empty or its new head does not fit);
        * the output's free space only shrinks — a grant that starts a
          packet takes its space, and ``commit`` moves reserved flits to
          used — so a port that did not fit never fits later in the
          tick, and after each started packet the unreserved heads that
          no longer fit drop out.

        Candidates stay in ascending port order, so every policy
        (including the rng draw of RANDOM) sees exactly the list the
        scalar tick builds.  Under a flit-invariant policy
        ``allowed_inputs`` is not asked (it is unrestricted), a single
        candidate skips the policy call, and the chosen packet takes
        ``min(budget, flits left)`` flits in one pass: the policy would
        keep choosing it, and one ``note_flit`` call stands for the run.
        A packet whose every flit crosses in one pass goes to the output
        with one ``push``; one that spans cycles reserves its space at
        the first flit and commits at the last.  Grant-for-grant and
        counter-for-counter identical to the scalar tick.

        When no live port is a candidate — every head is unreserved and
        larger than the output's free space — the tick sets ``_blocked``
        and parks the mux.  The test
        comes before ``allowed_inputs``, so a port waiting for its SRR
        slot does not count as blocked.  :meth:`tick` calls this with at
        least one live port, and serves a lone one under a flit-invariant
        policy through :meth:`_run_sole` instead.
        """
        live = self._live
        inputs = self.inputs
        policy = self.policy
        reserved = self._reserved
        progress = self._progress
        heads = self._heads
        output = self.output
        free = output._free
        if free >= self._max_flits:
            candidates = live[:]
        else:
            candidates = [
                p for p in live if reserved[p] or heads[p].flits <= free
            ]
            if not candidates:
                self._blocked = True
                self._until = FOREVER
                return
        self._blocked = False
        forced = self._invariant
        if not forced:
            allowed = policy.allowed_inputs(cycle)
            if allowed is not None:
                candidates = [p for p in candidates if p in allowed]
        tracer = self._tracer
        budget = self.width
        moved = 0
        completed = 0
        while budget > 0 and candidates:
            if forced and len(candidates) == 1:
                port = candidates[0]
            else:
                port = policy.choose(candidates, heads, cycle)
            packet = heads[port]
            flits = packet.flits
            sent = progress[port]
            if tracer is not None and sent == 0:
                tracer.emit(cycle, MUX_GRANT, self._tl_id, port, packet.uid)
            # A flit-invariant policy keeps choosing a mid-packet port,
            # so its packet takes every flit of budget it still needs.
            n = flits - sent if forced else 1
            if n > budget:
                n = budget
            budget -= n
            moved += n
            fresh = not reserved[port]
            if fresh:
                free -= flits
            if sent + n < flits:
                if fresh:
                    output.reserve(flits)
                    reserved[port] = True
                progress[port] = sent + n
                policy.note_flit(port, packet, False)
            else:
                policy.note_flit(port, packet, True)
                inputs[port].pop()  # refreshes heads[port] and live
                if fresh:
                    output.push(packet)  # room was checked: cannot fail
                else:
                    output.commit(packet)
                    progress[port] = 0
                    reserved[port] = False
                completed += 1
                if tracer is not None:
                    tracer.emit(cycle, MUX_XFER, self._tl_id,
                                port, packet.uid)
                if budget:
                    head = heads[port]
                    if head is None or head.flits > free:
                        candidates.remove(port)
            # The list is only read by later grants of this tick.
            if budget and fresh and free < self._max_flits:
                candidates = [
                    p for p in candidates
                    if reserved[p] or heads[p].flits <= free
                ]
        if moved:
            counters = self._counters
            if counters is not None:
                counters[self._flits_key] += moved
                if completed:
                    counters[self._packets_key] += completed
            if self._tl_link is not None:
                self._tl_link.add(cycle, moved)
        self._until = None if live else FOREVER

    def _run_sole(self, cycle: int, port: int) -> None:
        """:meth:`_tick_sparse` for one live input, as a flit run.

        A sole candidate always wins, so no candidate list or policy
        call is needed.  The head takes ``min(flits left, budget)``
        flits; after a completion the next head goes on while budget
        remains and it fits the output.  A run that ends its packet
        reports one ``note_flit(True)``, and one that does not reports
        one ``note_flit(False)``, as the general tick; a packet that
        crosses whole is one ``push``, as there.
        """
        heads = self._heads
        packet = heads[port]
        reserved = self._reserved
        output = self.output
        if not reserved[port] and packet.flits > output._free:
            self._blocked = True
            self._until = FOREVER
            return
        self._blocked = False
        progress = self._progress
        policy = self.policy
        tracer = self._tracer
        pop = self.inputs[port].pop
        budget = self.width
        moved = 0
        completed = 0
        while True:
            flits = packet.flits
            sent = progress[port]
            if tracer is not None and sent == 0:
                tracer.emit(cycle, MUX_GRANT, self._tl_id, port, packet.uid)
            n = flits - sent
            if n > budget:
                if not reserved[port]:
                    output.reserve(flits)
                    reserved[port] = True
                progress[port] = sent + budget
                moved += budget
                policy.note_flit(port, packet, False)
                break
            budget -= n
            moved += n
            policy.note_flit(port, packet, True)
            pop()  # refreshes heads[port] and live
            if reserved[port]:
                output.commit(packet)
                progress[port] = 0
                reserved[port] = False
            else:
                output.push(packet)  # room was checked: cannot fail
            completed += 1
            if tracer is not None:
                tracer.emit(cycle, MUX_XFER, self._tl_id, port, packet.uid)
            packet = heads[port]
            if (not budget or packet is None
                    or packet.flits > output._free):
                break
        counters = self._counters
        if counters is not None:
            counters[self._flits_key] += moved
            if completed:
                counters[self._packets_key] += completed
        if self._tl_link is not None:
            self._tl_link.add(cycle, moved)
        self._until = None if self._live else FOREVER

    def _can_start(self, port: int, head: Packet) -> bool:
        """A packet may (continue to) transmit if output space is secured."""
        if self._reserved[port]:
            return True
        return self.output.can_reserve(head.flits)

    def reserved_demand(self):
        """Yield ``(output_queue, flits)`` for each held output reservation.

        The invariant checker sums these across every switch to verify
        that each queue's ``reserved`` flits are exactly accounted for by
        in-flight packets — i.e. that every ``reserve`` is matched by
        exactly one eventual ``commit``.
        """
        for port, held in enumerate(self._reserved):
            if held:
                head = self.inputs[port].head()
                yield self.output, (0 if head is None else head.flits)

    def state_digest(self):
        """Progress/reservation state plus the queues this mux touches."""
        return (
            tuple(self._progress),
            tuple(self._reserved),
            self.policy.state_digest(),
            tuple(queue.state_digest() for queue in self.inputs),
            self.output.state_digest(),
        )

    def reset(self) -> None:
        self._progress = [0] * len(self.inputs)
        self._reserved = [False] * len(self.inputs)
        self._blocked = False
        self.policy.reset()
        for queue in self.inputs:
            queue.clear()
        self._max_flits = 0  # every input is empty now
        # Attached telemetry resets with the component, so a reset device
        # reports exactly what a freshly-built one would.
        if self._tl_link is not None:
            self._tl_link.reset()
