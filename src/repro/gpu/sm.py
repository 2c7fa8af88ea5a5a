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

The front end costs a fixed number of calls per event.  A memory op is coalesced once
into plain line addresses (``WarpSlot.pending_issue``, with the op's kind
and target device on the slot); a bypassed L1 is skipped without a
per-line lookup; and each injected transaction is an ``_issue_one``
call that asks ``_admit`` for the queue, builds the packet and pushes
it.  The LSU finds the next issuing warp by scanning only at op
boundaries.  When a warp's program ends, its thread block's live-warp
count drops (see :mod:`repro.gpu.kernel`).
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
        #: The registry's counter dict, bumped directly on the hot path.
        self._counters = None if stats is None else stats.counters
        self.l1 = L1Cache(
            config.l1_size_bytes,
            config.l1_line_bytes,
            config.l1_ways,
            config.l1_hit_latency,
            enabled=l1_enabled,
        )
        self.warps: List[WarpSlot] = []
        self._sched_pointer = 0
        #: Packet geometry, hoisted off the per-transaction path
        #: (``_issue_one`` inlines ``config.address_to_slice`` with it).
        self._line_bytes = config.l2_line_bytes
        self._num_slices = config.num_l2_slices
        self._read_flits = config.read_request_flits
        self._write_flits = config.write_request_flits
        #: Flits of the larger request kind: queues with this much room
        #: accept any transaction (see :meth:`tick`).
        self._largest_request = max(self._read_flits, self._write_flits)
        self._issue_width = config.sm_issue_width
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
        #: full or out of credits), or when a tick that spent its issue
        #: budget found the next attempt sure to be refused (see
        #: :meth:`tick`); cleared whenever the LSU runs.  A
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

    def add_warp(
        self, context: WarpContext, program: WarpProgram, block=None
    ) -> WarpSlot:
        """Make ``program`` resident; ``block`` is told when it ends."""
        if len(self.warps) >= self.config.max_warps_per_sm:
            raise RuntimeError(f"{self.name}: warp occupancy exceeded")
        slot = WarpSlot(context, program, block)
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
        """Run warps and the LSU for one cycle, then write the horizon.

        An SM sleeps when no warp is runnable.  Warps in ``NEW``/
        ``READY``/``ISSUING`` keep it busy every cycle, except
        ``ISSUING`` behind a backpressure-blocked LSU, which parks until
        queue space or credits wake the SM; ``SLEEP`` warps and pending
        L1 returns contribute their wake-up cycles; ``WAIT_MEM``/``DONE``
        warps are purely reactive (the reply path calls
        :meth:`deliver_reply`, which wakes the SM when the op
        completes).  The warp scan leaves no warp ``NEW`` or ``READY``,
        so it collects the sleepers' earliest wake-up and counts the
        issuing warps; the LSU then accounts for each warp whose issue
        phase it finishes.
        """
        warps = self.warps
        if self._l1_returns:
            self._complete_l1_returns(cycle)
        elif not warps:
            self._until = FOREVER
            return
        # Resume runnable warps (generator steps are cheap and represent
        # ALU work done in parallel with memory: all runnable warps may
        # advance to their next action in one cycle).
        wake = FOREVER
        issuing = 0
        for warp in warps:
            state = warp.state
            if state == NEW or state == READY:
                self._advance(warp, cycle)
                state = warp.state
            elif state == SLEEP and cycle >= warp.wake_cycle:
                warp.state = READY
                self._advance(warp, cycle)
                state = warp.state
            if state == SLEEP:
                if warp.wake_cycle < wake:
                    wake = warp.wake_cycle
            elif state == ISSUING:
                issuing += 1
        # LSU: inject up to issue-width transactions.  A warp memory
        # instruction's transactions are issued *contiguously* (the
        # coalescer emits them as one batch), so packets from different
        # warps never interleave mid-op — which is also what makes
        # warp-group (CRR) arbitration meaningful downstream.  The LSU
        # rotates between warps only at op boundaries: the warp at
        # ``_sched_pointer`` keeps the LSU while its batch lasts, and the
        # round-robin scan runs only when that warp has none.
        ready = False
        if warps:
            blocked = False
            budget = self._issue_width
            while issuing and budget:
                pointer = self._sched_pointer
                current = warps[pointer]
                if current.state != ISSUING or not current.pending_issue:
                    current = self._current_issue_warp()
                    if current is None:
                        break
                    pointer = self._sched_pointer
                if not self._issue_one(current, cycle):
                    blocked = True  # out of credits or queue space
                    break
                budget -= 1
                if not current.pending_issue:
                    # Op batch complete: rotate to the next warp.
                    self._sched_pointer = (pointer + 1) % len(warps)
                    issuing -= 1
                    state = current.state
                    if state == SLEEP:
                        if current.wake_cycle < wake:
                            wake = current.wake_cycle
                    elif state == READY:
                        ready = True
            if not budget and (
                self._read_credits <= 0
                or self._write_credits <= 0
                or self.inject_queue._free < self._largest_request
                or (
                    self.remote_queue is not None
                    and self.remote_queue._free < self._largest_request
                )
            ):
                # A spent budget says nothing about the next attempt:
                # park now if it is sure to be refused, instead of after
                # a no-op retry.  (With credits of both kinds and room
                # for the larger request everywhere, any attempt is
                # accepted.)  It is refused when the warp at the pointer,
                # where the next attempt starts, is issuing and
                # :meth:`_admit` refuses it.  Nothing can change that
                # before the SM ticks again except a pop of its queue or
                # a returned credit, which both wake a blocked SM, so the
                # skipped retry is exactly the no-op a refused attempt
                # is.  A retry that would scan on to a later warp moves
                # the pointer, which is not a no-op, so the SM stays
                # busy then.
                head = warps[self._sched_pointer]
                blocked = (
                    head.state == ISSUING
                    and bool(head.pending_issue)
                    and self._admit(head) is None
                )
            self._blocked = blocked
        if ready or (issuing and not self._blocked):
            self._until = None
            return
        for due, _ in self._l1_returns:
            if due < wake:
                wake = due
        self._until = wake

    def _current_issue_warp(self) -> Optional[WarpSlot]:
        """The next ISSUING warp with transactions left, in round robin.

        Scans from the scheduler pointer and moves the pointer to the
        warp it returns.
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
                if warp.block is not None:
                    warp.block.warp_finished()
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
        kind = op.kind
        if kind != READ and kind != WRITE:
            raise ValueError(f"bad MemOp kind {kind!r}")
        lines = coalesce(op.addresses, self._line_bytes)
        if self._counters is not None:
            self._counters[self._mem_ops_key] += 1
            self._counters[self._transactions_key] += len(lines)
        warp.op_start_cycle = cycle
        warp.op_blocking = blocking = op.blocking()
        self._group_counter += 1
        warp.op_group = (self.sm_id << 20) | self._group_counter
        warp.outstanding = 0
        warp.op_kind = kind
        device = op.device
        if device is not None and device != self.device_id:
            if self.remote_queue is None:
                raise RuntimeError(
                    f"{self.name}: remote MemOp targets device {device} "
                    "but this SM has no inter-GPU fabric attached"
                )
            # Peer accesses bypass the local L1 entirely (NVLink peer
            # loads/stores are not cached on the requesting die) and
            # enter the fabric egress instead of the on-chip NoC.
            warp.op_device = device
            warp.pending_issue = lines
            warp.state = ISSUING
            return
        warp.op_device = None
        l1 = self.l1
        if l1.enabled:
            pending: List[int] = []
            for address in lines:
                if kind == READ and l1.lookup_read(address):
                    # L1 hit: completes locally after the hit latency.
                    warp.outstanding += 1
                    self._l1_returns.append((cycle + l1.hit_latency, warp))
                    if self._counters is not None:
                        self._counters[self._l1_hits_key] += 1
                    continue
                if kind == WRITE:
                    l1.note_write(address)
                pending.append(address)
            lines = pending
        # A bypassed L1 is never read or written: every line is issued.
        warp.pending_issue = lines
        if lines or (blocking and warp.outstanding):
            warp.state = ISSUING if lines else WAIT_MEM
        else:
            # Entire op served by L1 without blocking (pure hit, posted).
            warp.resume_value = l1.hit_latency
            warp.state = SLEEP
            warp.wake_cycle = cycle + 1

    def _admit(self, warp: WarpSlot) -> Optional[PacketQueue]:
        """The queue the warp's next transaction would enter, or None if
        it would be refused.

        A transaction is refused when its kind has no credit left or its
        queue has no room for its request flits.
        """
        if warp.op_kind == READ:
            if self._read_credits <= 0:
                return None
            flits = self._read_flits
        else:
            if self._write_credits <= 0:
                return None
            flits = self._write_flits
        queue = (
            self.inject_queue if warp.op_device is None
            else self.remote_queue
        )
        return queue if flits <= queue._free else None

    def _issue_one(self, warp: WarpSlot, cycle: int) -> bool:
        """Try to inject the warp's next transaction; True on success."""
        queue = self._admit(warp)
        if queue is None:
            return False  # refused before a packet (and its uid) is made
        kind = warp.op_kind
        device = warp.op_device
        pending = warp.pending_issue
        address = pending[0]
        # Positional fields (see Packet): keywords cost twice as much.
        # The slice is GpuConfig.address_to_slice, inlined.
        packet = Packet(
            kind,
            address,
            self._read_flits if kind == READ else self._write_flits,
            self.sm_id,
            (address // self._line_bytes) % self._num_slices,
            False,
            warp,
            warp.op_group,
            cycle,
            self.device_id,
            self.device_id if device is None else device,
        )
        queue.push(packet)
        if kind == READ:
            self._read_credits -= 1
        else:
            self._write_credits -= 1
        del pending[0]
        warp.outstanding += 1
        if self._counters is not None:
            self._counters[self._injected_key] += 1
        if self._tracer is not None:
            self._tracer.emit(cycle, SM_INJECT, self._tl_id, packet.uid,
                              1 if kind == WRITE else 0,
                              packet.slice_id)
        if self._validator is not None:
            self._validator.note_inject(packet, cycle)
        if not pending:
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
