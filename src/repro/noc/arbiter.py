"""Mux arbitration policies (Section 2.3 and Section 6 of the paper).

The covert channel exists *because* the TPC/GPC muxes use locally-fair
round-robin arbitration: an idle sender leaves its bandwidth to the
receiver, so the receiver's service rate reveals the sender's activity.
Section 6 evaluates alternatives:

* **RR** — baseline locally-fair round-robin (leaky).
* **CRR** — coarse-grain round-robin: the grant is held until the current
  warp's group of packets has drained.  Reduces arbitration activity but
  does not change bandwidth sharing, so the channel survives (Fig 15).
* **SRR** — strict round-robin: pure time-division multiplexing.  Every
  input owns fixed cycles whether or not it has traffic, so the receiver's
  service rate is constant and the channel is eliminated (Fig 15).
* **AGE** — globally-fair age-based arbitration; contending packets have
  similar ages, so this does *not* mitigate the channel (Section 6).
* **FIXED / RANDOM** — reference policies used in unit tests.

A policy sees the candidate input ports each cycle and picks one flit's
worth of grant at a time; the mux loops over its per-cycle flit budget.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional, Sequence

from .packet import Packet


class ArbitrationPolicy:
    """Interface: pick which input port sends the next flit."""

    name = "abstract"

    #: True when the policy promises three things, which let the sparse
    #: mux and crossbar ticks skip calls that cannot change a grant:
    #:
    #: * ``choose`` only reads policy state, so with a single candidate
    #:   it returns that candidate and changes nothing (the sole
    #:   candidate is granted without calling the policy);
    #: * after a port is granted a flit of a packet, ``choose`` keeps
    #:   returning that port until the packet's last flit, as long as it
    #:   stays a candidate and the candidate set stays the same or
    #:   shrinks (a packet takes every flit of budget it needs at once);
    #: * repeated ``note_flit(port, packet, False)`` calls change no
    #:   state beyond the first (one call stands for a run of mid-packet
    #:   flits), and ``note_flit(port, packet, True)`` leaves the same
    #:   state whether or not ``note_flit(port, packet, False)`` calls
    #:   came just before it (a run that ends its packet is one call).
    #:
    #: Such a policy also leaves ``allowed_inputs`` unrestricted.  False
    #: by default; RANDOM must keep it False because it draws its rng on
    #: every ``choose``, contended or not, and SRR because its slot
    #: owner changes every cycle.
    #:
    #: What the sparse ticks skip under it: ``allowed_inputs``,
    #: ``choose`` for a sole candidate, and the per-flit ``note_flit``
    #: calls of a run (one stands for all).  A switch tick with one live
    #: input (``_run_sole``) also skips the candidate list and, in the
    #: crossbar, the per-output grouping.
    flit_invariant = False

    def __init__(self, num_inputs: int) -> None:
        self.num_inputs = num_inputs

    def allowed_inputs(self, cycle: int) -> Optional[Sequence[int]]:
        """Hard restriction for this cycle, or None for 'any input'.

        Strict round-robin uses this to enforce slot ownership.
        """
        return None

    def choose(
        self, candidates: List[int], heads: List[Optional[Packet]], cycle: int
    ) -> int:
        """Pick one of ``candidates`` to send a flit.

        ``candidates`` is non-empty and in ascending port order: every
        caller (the scalar and sparse mux and crossbar ticks) builds it
        by walking the input ports in index order, and the round-robin
        policies rely on that to bisect for the next port at or after
        their pointer.
        """
        raise NotImplementedError

    def note_flit(self, port: int, packet: Packet, last: bool) -> None:
        """Called after each granted flit (``last`` on packet completion)."""

    def reset(self) -> None:
        """Return to initial state."""

    def state_digest(self):
        """Comparable summary of mutable policy state (lockstep oracle).

        Stateless policies return an empty tuple; stateful ones override
        this with their pointer/grant/rng state.
        """
        return ()


def _next_from(candidates: List[int], pointer: int) -> int:
    """First candidate at or after ``pointer``, wrapping to the lowest.

    ``candidates`` is ascending, so this is the round-robin winner
    ``min(candidates, key=lambda p: (p - pointer) % num_inputs)``.
    """
    i = bisect_left(candidates, pointer)
    return candidates[i] if i < len(candidates) else candidates[0]


class RoundRobin(ArbitrationPolicy):
    """Locally-fair round-robin at packet granularity.

    The pointer advances past a port only when that port's packet finishes,
    so multi-flit packets are not interleaved (wormhole-style), but an idle
    port is skipped immediately — which is exactly the property the covert
    channel exploits.
    """

    name = "rr"
    flit_invariant = True  # choose only reads the pointer and lock

    def __init__(self, num_inputs: int) -> None:
        super().__init__(num_inputs)
        self._pointer = 0
        self._locked: Optional[int] = None

    def choose(self, candidates, heads, cycle):
        if self._locked is not None and self._locked in candidates:
            return self._locked
        return _next_from(candidates, self._pointer)

    def note_flit(self, port, packet, last):
        if last:
            self._locked = None
            self._pointer = (port + 1) % self.num_inputs
        else:
            self._locked = port

    def reset(self):
        self._pointer = 0
        self._locked = None

    def state_digest(self):
        return (self._pointer, self._locked)


class CoarseRoundRobin(ArbitrationPolicy):
    """Round-robin at warp-group granularity (network coalescing).

    The grant is held while the port keeps presenting packets with the
    same ``group_id``; arbitration only rotates between warp groups.  As
    the paper shows, this reduces arbitration events but leaves bandwidth
    sharing demand-driven, so the covert channel is *not* mitigated.
    """

    name = "crr"
    flit_invariant = True  # choose only reads the held port/group

    def __init__(self, num_inputs: int) -> None:
        super().__init__(num_inputs)
        self._pointer = 0
        self._hold_port: Optional[int] = None
        self._group: Optional[int] = None

    def choose(self, candidates, heads, cycle):
        if self._hold_port is not None and self._hold_port in candidates:
            head = heads[self._hold_port]
            if head is not None and head.group_id == self._group:
                return self._hold_port
        # The held warp group is exhausted (or its port went idle):
        # rotate like plain round-robin.
        return _next_from(candidates, self._pointer)

    def note_flit(self, port, packet, last):
        self._hold_port = port
        self._group = packet.group_id
        if last:
            self._pointer = (port + 1) % self.num_inputs

    def reset(self):
        self._pointer = 0
        self._hold_port = None
        self._group = None

    def state_digest(self):
        return (self._pointer, self._hold_port, self._group)


class StrictRoundRobin(ArbitrationPolicy):
    """Time-division multiplexing: input ``cycle % N`` owns each cycle.

    Bandwidth is granted even to idle inputs (their slots go unused), so
    one input's service rate is independent of every other input's demand
    — the secure arbitration countermeasure of Section 6.
    """

    name = "srr"

    def allowed_inputs(self, cycle):
        return (cycle % self.num_inputs,)

    def choose(self, candidates, heads, cycle):
        # allowed_inputs leaves at most one candidate.
        return candidates[0]


class AgeBased(ArbitrationPolicy):
    """Globally-fair arbitration: the oldest head packet wins.

    Provides global fairness but not isolation: contending packets are
    generated at similar times and thus have similar ages, so the covert
    channel persists (Section 6).
    """

    name = "age"
    flit_invariant = True  # stateless; sole candidate always wins

    def choose(self, candidates, heads, cycle):
        return min(candidates, key=lambda port: heads[port].birth_cycle)


class FixedPriority(ArbitrationPolicy):
    """Lowest port index always wins (can starve; test reference only)."""

    name = "fixed"
    flit_invariant = True  # stateless; sole candidate always wins

    def choose(self, candidates, heads, cycle):
        return min(candidates)


class RandomArbiter(ArbitrationPolicy):
    """Uniform random grant (seeded; test reference only)."""

    name = "random"

    def __init__(self, num_inputs: int, seed: int = 0) -> None:
        super().__init__(num_inputs)
        self._seed = seed
        self._rng = random.Random(seed)

    def choose(self, candidates, heads, cycle):
        return self._rng.choice(candidates)

    def reset(self):
        self._rng = random.Random(self._seed)

    def state_digest(self):
        # The Mersenne state tuple is large; a hash of it is enough to
        # detect two rngs that have consumed different draw counts.
        return (hash(self._rng.getstate()[1]),)


_POLICIES = {
    "rr": RoundRobin,
    "crr": CoarseRoundRobin,
    "srr": StrictRoundRobin,
    "age": AgeBased,
    "fixed": FixedPriority,
    "random": RandomArbiter,
}


def make_policy(name: str, num_inputs: int, seed: int = 0) -> ArbitrationPolicy:
    """Instantiate an arbitration policy by config name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown arbitration policy {name!r}") from None
    if cls is RandomArbiter:
        return RandomArbiter(num_inputs, seed=seed)
    return cls(num_inputs)
