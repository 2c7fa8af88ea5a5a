"""Streaming Multiprocessor model.

An SM hosts resident warps (each running a warp program), schedules their
memory instructions through the coalescer and LSU, and injects the
resulting transactions into its NoC injection queue — the entry point of
the shared TPC channel the covert channel exploits.

Timing behaviour that the paper's contention shapes depend on:

* **Reads are windowed.**  At most ``sm_mshrs`` read transactions may be
  outstanding; with a ~220-cycle round trip this caps a single SM's read
  rate well below the TPC channel width, so two SMs' reads do not contend
  at the TPC mux (Figure 5a, Read).
* **Writes are posted.**  Stores retire once injected (bounded by
  ``sm_write_buffer`` credits returned by the write acks), so a streaming
  writer saturates its injection channel — one co-located writer halves
  the other SM's bandwidth (Figures 2, 5a, 8).
* **One transaction injected per cycle** through the LSU, backpressured by
  the injection queue; this is the per-SM demand the muxes arbitrate.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..config import GpuConfig
from ..noc.buffer import PacketQueue
from ..noc.packet import Packet, READ, WRITE
from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import READ_RTT, SM_INJECT
from .caches import L1Cache
from .coalescer import coalesce
from .warp import (
    DONE,
    ISSUING,
    NEW,
    READY,
    SLEEP,
    WAIT_MEM,
    MemOp,
    ReadClock,
    WaitClockMask,
    WaitCycles,
    WaitUntilClock,
    WarpContext,
    WarpProgram,
    WarpSlot,
)


class _Transaction:
    """One coalesced memory transaction in flight from a warp."""

    __slots__ = ("warp", "kind", "address", "sm_id", "device")

    def __init__(
        self,
        warp: WarpSlot,
        kind: str,
        address: int,
        sm_id: int,
        device: Optional[int] = None,
    ):
        self.warp = warp
        self.kind = kind
        self.address = address
        self.sm_id = sm_id
        #: Remote target device id; None for a local (on-chip) access.
        self.device = device


class StreamingMultiprocessor(Component):
    """One SM: warp scheduler + coalescer + LSU + L1 + clock register."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        inject_queue: PacketQueue,
        read_clock: Callable[[int], int],
        stats: Optional[StatsRegistry] = None,
        l1_enabled: bool = False,
        seed_salt: int = 0,
        device_id: int = 0,
        remote_queue: Optional[PacketQueue] = None,
    ) -> None:
        self.sm_id = sm_id
        self.name = f"sm{sm_id}"
        self._mem_ops_key = f"{self.name}.mem_ops"
        self._transactions_key = f"{self.name}.transactions"
        self._l1_hits_key = f"{self.name}.l1_hits"
        self._injected_key = f"{self.name}.injected"
        self._read_latency_key = f"{self.name}.read_latency"
        self.config = config
        self.inject_queue = inject_queue
        #: Device this SM belongs to (multi-GPU systems; 0 standalone).
        self.device_id = device_id
        #: Egress queue toward the inter-GPU fabric.  Remote ``MemOp``s
        #: inject here instead of the on-chip NoC; None on a standalone
        #: device, where remote ops are a configuration error.
        self.remote_queue = remote_queue
        self._read_clock = read_clock
        self.stats = stats
        self.l1 = L1Cache(
            config.l1_size_bytes,
            config.l1_line_bytes,
            config.l1_ways,
            config.l1_hit_latency,
            enabled=l1_enabled,
        )
        self.warps: List[WarpSlot] = []
        self._sched_pointer = 0
        self._read_credits = config.sm_mshrs
        self._write_credits = config.sm_write_buffer
        self._group_counter = 0
        #: (ready_cycle, warp) pairs for L1 read hits completing later.
        self._l1_returns: List = []
        #: Per-op timing noise (scheduler wake-up jitter etc.), seeded;
        #: the rng is built on the first draw, so an SM that completes no
        #: memory op seeds none.
        self._noise = config.timing_noise
        self._noise_seed = (config.seed << 8) ^ 0x5A17 ^ sm_id ^ (seed_salt << 20)
        self._rng: Optional[random.Random] = None
        #: Hook fired when a warp finishes (set by the thread-block
        #: scheduler to its own wake, so it can retire/promote/dispatch).
        self.on_warp_done: Optional[Callable[[], None]] = None
        #: Round-trip latency histogram (fixed buckets, percentile
        #: queries) alongside the sampler's running aggregates.
        self._lat_hist = (
            None if stats is None
            else stats.histogram(self._read_latency_key)
        )
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0
        #: Conservation checker (None unless the device enables
        #: validation); same one-branch-when-disabled pattern as _tracer.
        self._validator = None
        #: True when this tick's last issue attempt was refused (queue
        #: full or out of credits); cleared whenever the LSU runs.  A
        #: blocked LSU parks reactively instead of retrying every cycle:
        #: a pop of a queue it produces into (its injection queue, the
        #: fabric egress queue) or a reply returning credits wakes it.
        #: The retry ticks it skips are state-preserving no-ops.
        self._blocked = False
        inject_queue.attach_producer(self)
        if remote_queue is not None:
            remote_queue.attach_producer(self)

    def attach_telemetry(self, hub) -> None:
        """Opt this SM into flit-lifecycle event tracing."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)

    # ------------------------------------------------------------------ #
    # Occupancy / launch interface (used by the thread-block scheduler).
    # ------------------------------------------------------------------ #
    @property
    def smid(self) -> int:
        """The %smid special register."""
        return self.sm_id

    def clock(self) -> int:
        """The clock() intrinsic: per-SM 32-bit cycle register."""
        return self._read_clock(self.sm_id)

    def add_warp(self, context: WarpContext, program: WarpProgram) -> WarpSlot:
        if len(self.warps) >= self.config.max_warps_per_sm:
            raise RuntimeError(f"{self.name}: warp occupancy exceeded")
        slot = WarpSlot(context, program)
        self.warps.append(slot)
        self.wake()
        return slot

    def retire_finished_warps(self) -> None:
        """Drop DONE warps so completed blocks free their slots."""
        self.warps = [warp for warp in self.warps if warp.state != DONE]
        self._sched_pointer = 0

    # ------------------------------------------------------------------ #
    # Per-cycle execution.
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        warps = self.warps
        if not warps and not self._l1_returns:
            return
        if self._l1_returns:
            self._complete_l1_returns(cycle)
        # Resume runnable warps (generator steps are cheap and represent
        # ALU work done in parallel with memory: all runnable warps may
        # advance to their next action in one cycle).
        for warp in warps:
            state = warp.state
            if state == NEW or state == READY:
                self._advance(warp, cycle)
            elif state == SLEEP and cycle >= warp.wake_cycle:
                warp.state = READY
                self._advance(warp, cycle)
        # LSU: inject up to issue-width transactions.  A warp memory
        # instruction's transactions are issued *contiguously* (the
        # coalescer emits them as one batch), so packets from different
        # warps never interleave mid-op — which is also what makes
        # warp-group (CRR) arbitration meaningful downstream.  The LSU
        # rotates between warps only at op boundaries.
        budget = self.config.sm_issue_width
        num = len(warps)
        if num == 0:
            return
        self._blocked = False
        while budget > 0:
            current = self._current_issue_warp()
            if current is None:
                break
            if self._issue_one(current, cycle):
                budget -= 1
                if not current.pending_issue:
                    # Op batch complete: rotate to the next warp.
                    self._sched_pointer = (
                        warps.index(current) + 1
                    ) % num
            else:
                self._blocked = True
                break  # blocked on credits or queue space

    def _current_issue_warp(self) -> Optional[WarpSlot]:
        """The warp whose op batch the LSU is currently draining.

        Sticks with an in-progress batch; otherwise picks the next
        ISSUING warp in round-robin order from the scheduler pointer.
        """
        warps = self.warps
        num = len(warps)
        for offset in range(num):
            warp = warps[(self._sched_pointer + offset) % num]
            if warp.state == ISSUING and warp.pending_issue:
                if offset:
                    self._sched_pointer = (self._sched_pointer + offset) % num
                return warp
        return None

    # -- generator stepping -------------------------------------------- #
    def _advance(self, warp: WarpSlot, cycle: int) -> None:
        """Drive the warp's generator until it blocks on a slow action."""
        while True:
            try:
                action = warp.program.send(
                    None if warp.state == NEW else warp.resume_value
                )
            except StopIteration:
                warp.state = DONE
                if self.on_warp_done is not None:
                    self.on_warp_done()
                return
            warp.state = READY
            warp.resume_value = None
            if isinstance(action, MemOp):
                self._start_mem_op(warp, action, cycle)
                return
            if isinstance(action, ReadClock):
                warp.resume_value = self.clock()
                warp.state = SLEEP
                warp.wake_cycle = cycle + 1
                return
            if isinstance(action, WaitCycles):
                warp.state = SLEEP
                warp.wake_cycle = cycle + max(1, action.cycles)
                return
            if isinstance(action, WaitUntilClock):
                self._sleep_until_clock(warp, cycle, action.value)
                return
            if isinstance(action, WaitClockMask):
                self._sleep_until_mask(warp, cycle, action.mask, action.target)
                return
            raise TypeError(f"unknown warp action: {action!r}")

    def _sleep_until_clock(self, warp: WarpSlot, cycle: int, value: int) -> None:
        """Busy-wait until clock() >= value, computed analytically."""
        now = self.clock()
        delta = value - now
        warp.state = SLEEP
        warp.wake_cycle = cycle + max(1, delta)

    def _sleep_until_mask(
        self, warp: WarpSlot, cycle: int, mask: int, target: int
    ) -> None:
        """Busy-wait until ``clock() & mask == target``.

        Solved arithmetically: a poll loop would observe the first cycle
        where the masked clock matches, which for a contiguous low-bit
        mask is periodic with period mask+1.
        """
        if mask & (mask + 1):
            raise ValueError("WaitClockMask requires a contiguous low mask")
        period = mask + 1
        now = self.clock()
        delta = (target - now) % period
        if delta == 0:
            delta = period  # "the *next* boundary", matching a poll loop
        warp.state = SLEEP
        warp.wake_cycle = cycle + delta

    # -- memory pipeline ------------------------------------------------ #
    def _start_mem_op(self, warp: WarpSlot, op: MemOp, cycle: int) -> None:
        if op.kind not in (READ, WRITE):
            raise ValueError(f"bad MemOp kind {op.kind!r}")
        lines = coalesce(op.addresses, self.config.l2_line_bytes)
        if self.stats is not None:
            self.stats.incr(self._mem_ops_key)
            self.stats.incr(self._transactions_key, len(lines))
        warp.op_start_cycle = cycle
        warp.op_blocking = op.blocking()
        self._group_counter += 1
        warp.op_group = (self.sm_id << 20) | self._group_counter
        warp.outstanding = 0
        remote = op.device is not None and op.device != self.device_id
        if remote and self.remote_queue is None:
            raise RuntimeError(
                f"{self.name}: remote MemOp targets device {op.device} "
                "but this SM has no inter-GPU fabric attached"
            )
        if remote:
            # Peer accesses bypass the local L1 entirely (NVLink peer
            # loads/stores are not cached on the requesting die) and
            # enter the fabric egress instead of the on-chip NoC.
            warp.pending_issue = [
                _Transaction(warp, op.kind, address, self.sm_id, op.device)
                for address in lines
            ]
            warp.state = ISSUING
            return
        pending: List[_Transaction] = []
        for address in lines:
            if op.kind == READ and self.l1.lookup_read(address):
                # L1 hit: completes locally after the hit latency.
                warp.outstanding += 1
                self._l1_returns.append(
                    (cycle + self.l1.hit_latency, warp)
                )
                if self.stats is not None:
                    self.stats.incr(self._l1_hits_key)
                continue
            if op.kind == WRITE:
                self.l1.note_write(address)
            pending.append(_Transaction(warp, op.kind, address, self.sm_id))
        warp.pending_issue = pending
        if pending or (warp.op_blocking and warp.outstanding):
            warp.state = ISSUING if pending else WAIT_MEM
        else:
            # Entire op served by L1 without blocking (pure hit, posted).
            warp.resume_value = self.l1.hit_latency
            warp.state = SLEEP
            warp.wake_cycle = cycle + 1

    def _issue_one(self, warp: WarpSlot, cycle: int) -> bool:
        """Try to inject the warp's next transaction; True on success."""
        txn: _Transaction = warp.pending_issue[0]
        if txn.kind == READ:
            if self._read_credits <= 0:
                return False
            flits = self.config.read_request_flits
        else:
            if self._write_credits <= 0:
                return False
            flits = self.config.write_request_flits
        packet = Packet(
            kind=txn.kind,
            address=txn.address,
            flits=flits,
            src_sm=self.sm_id,
            slice_id=self.config.address_to_slice(txn.address),
            warp_ref=warp,
            group_id=warp.op_group,
            birth_cycle=cycle,
            src_device=self.device_id,
            dst_device=(
                self.device_id if txn.device is None else txn.device
            ),
        )
        queue = (
            self.inject_queue if txn.device is None else self.remote_queue
        )
        if not queue.push(packet):
            return False
        if txn.kind == READ:
            self._read_credits -= 1
        else:
            self._write_credits -= 1
        warp.pending_issue.pop(0)
        warp.outstanding += 1
        if self.stats is not None:
            self.stats.incr(self._injected_key)
        if self._tracer is not None:
            self._tracer.emit(cycle, SM_INJECT, self._tl_id, packet.uid,
                              1 if txn.kind == WRITE else 0,
                              packet.slice_id)
        if self._validator is not None:
            self._validator.note_inject(packet, cycle)
        if not warp.pending_issue:
            self._finish_issue_phase(warp, cycle)
        return True

    def _op_done(self, warp: WarpSlot, cycle: int) -> None:
        """Complete a memory op: apply the timing-noise model and resume.

        The uniform 0..timing_noise delay stands in for the system effects
        a real GPU adds to every warp wake-up (scheduler jitter, replays),
        which is the error floor of low-iteration covert-channel slots.
        """
        latency = cycle - warp.op_start_cycle
        if self._noise:
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._noise_seed)
            jitter = rng.randrange(0, self._noise + 1)
            latency += jitter
            warp.resume_value = latency
            warp.state = SLEEP
            warp.wake_cycle = cycle + max(1, jitter)
        else:
            warp.resume_value = latency
            warp.state = READY

    def _finish_issue_phase(self, warp: WarpSlot, cycle: int) -> None:
        if warp.op_blocking and warp.outstanding > 0:
            warp.state = WAIT_MEM
        else:
            # Posted op: retires once issued; latency observed = issue time.
            self._op_done(warp, cycle)

    def deliver_reply(self, packet: Packet, cycle: int) -> None:
        """Reply-subnet delivery: credit the warp and maybe wake it.

        The SM is woken only when the reply can change its next tick:
        the returned credit may unblock a blocked LSU, or the reply
        completes the warp's blocking op.  Otherwise the reply only
        updates counters that no parked tick reads.
        """
        if self._blocked:
            self.wake()
        if packet.kind == READ:
            self._read_credits += 1
            if packet.dst_device == self.device_id:
                # Remote reads are not cached locally (peer accesses
                # bypass the L1 in both directions).
                self.l1.fill(packet.address)
        else:
            self._write_credits += 1
        warp = packet.warp_ref
        if warp is None:
            return
        # Credit the warp only if this reply belongs to its *current*
        # blocking op (a late posted-write ack must not complete a newer
        # op it doesn't belong to).
        if warp.op_blocking and packet.group_id == warp.op_group:
            warp.outstanding -= 1
            if warp.outstanding <= 0 and warp.state == WAIT_MEM:
                if packet.kind == READ:
                    latency = cycle - warp.op_start_cycle
                    if self.stats is not None:
                        self.stats.sample(self._read_latency_key, latency)
                        self._lat_hist.add(latency)
                    if self._tracer is not None:
                        self._tracer.emit(cycle, READ_RTT, self._tl_id,
                                          latency, packet.uid)
                self._op_done(warp, cycle)
                self.wake()

    def _complete_l1_returns(self, cycle: int) -> None:
        remaining = []
        for ready, warp in self._l1_returns:
            if ready <= cycle:
                warp.outstanding -= 1
                if (
                    warp.outstanding <= 0
                    and warp.state == WAIT_MEM
                    and not warp.pending_issue
                ):
                    self._op_done(warp, cycle)
            else:
                remaining.append((ready, warp))
        self._l1_returns = remaining

    def idle_until(self, cycle: int) -> Optional[int]:
        """Activity contract: an SM sleeps when no warp is runnable.

        Warps in ``NEW``/``READY``/``ISSUING`` keep the SM active every
        cycle, except ``ISSUING`` behind a backpressure-blocked LSU,
        which parks until queue space or credits wake the SM; ``SLEEP``
        warps and pending L1 returns contribute their wake-up cycles;
        ``WAIT_MEM``/``DONE`` warps are purely reactive (the reply path
        calls :meth:`deliver_reply`, which wakes the SM when the op
        completes).
        """
        wake = FOREVER
        blocked = self._blocked
        for warp in self.warps:
            state = warp.state
            if state == SLEEP:
                if warp.wake_cycle < wake:
                    wake = warp.wake_cycle
            elif state == ISSUING and blocked:
                # The LSU is backpressure-blocked; retry ticks are no-ops
                # until the injection queue's pop hook or a reply
                # delivery wakes the SM, so park reactively.
                continue
            elif state != WAIT_MEM and state != DONE:
                return None  # NEW / READY / ISSUING: busy
        for ready, _ in self._l1_returns:
            if ready < wake:
                wake = ready
        return wake

    def state_digest(self):
        """Warp, credit, rng and L1 tag state (lockstep oracle).

        Warp slots are summarised by their scheduler-visible fields; warp
        program generators themselves advance deterministically given the
        same resume sequence, so they need no direct representation.  A
        bypassed L1 is never read, so only an enabled one is digested.
        The jitter rng reads None until its first draw.
        """
        return (
            tuple(
                (
                    warp.state,
                    warp.wake_cycle,
                    warp.outstanding,
                    len(warp.pending_issue),
                    warp.op_group,
                    warp.op_blocking,
                    warp.op_start_cycle,
                )
                for warp in self.warps
            ),
            self._sched_pointer,
            self._read_credits,
            self._write_credits,
            tuple(sorted(ready for ready, _ in self._l1_returns)),
            None if self._rng is None else hash(self._rng.getstate()[1]),
            self.inject_queue.state_digest(),
            (
                None if self.remote_queue is None
                else self.remote_queue.state_digest()
            ),
            self.l1.cache.state_digest() if self.l1.enabled else None,
        )

    def reset(self) -> None:
        self.warps.clear()
        self._sched_pointer = 0
        self._blocked = False
        self._read_credits = self.config.sm_mshrs
        self._write_credits = self.config.sm_write_buffer
        self._l1_returns.clear()
        self.l1.cache.reset()  # invalidate AND drop the replacement rng
        self._rng = None
