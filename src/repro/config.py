"""GPU and NoC configuration.

The :class:`GpuConfig` dataclass holds every architectural parameter of the
simulated GPU.  The default instance, :data:`VOLTA_V100`, mirrors Table 1 of
the paper (a Volta-like configuration: 1200 MHz, 40 TPCs with 2 SMs each,
6 GPCs, 48 L2 slices, a crossbar interconnect with 40-byte flits and two
subnets) plus the microarchitectural knobs the paper's contention behaviour
depends on: the TPC/GPC mux concentration factors, the GPC bandwidth speedup,
the SM read window (MSHRs), and packet sizes in flits.

All randomness in the simulator flows from the ``seed`` recorded here so that
every experiment is deterministic and reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Arbitration policy names accepted throughout the package.
ARBITRATION_POLICIES = ("rr", "crr", "srr", "age", "fixed", "random")

#: Engine scheduling strategies accepted by ``engine_strategy``.
ENGINE_STRATEGIES = ("active", "naive")


@dataclass(frozen=True)
class DramTiming:
    """HBM2-style DRAM timing parameters (in memory-controller cycles).

    Matches the memory model row of Table 1: tCL=12, tRP=12, tRC=40,
    tRAS=28, tRCD=12, tRRD=3.
    """

    t_cl: int = 12
    t_rp: int = 12
    t_rc: int = 40
    t_ras: int = 28
    t_rcd: int = 12
    t_rrd: int = 3
    #: Fixed controller/PHY/clock-crossing overhead per access, in core
    #: cycles.  Makes an L2 miss cost a realistic multiple of an L2 hit
    #: (on Volta a miss roughly doubles the round trip); without it the
    #: raw bank timings above would make DRAM faster than the L2
    #: pipeline, which is nonsense.
    t_overhead: int = 260

    @property
    def row_hit_latency(self) -> int:
        """Cycles to serve a request that hits the open row."""
        return self.t_cl

    @property
    def row_miss_latency(self) -> int:
        """Cycles to serve a request that must close and re-open a row."""
        return self.t_rp + self.t_rcd + self.t_cl

    @property
    def row_conflict_latency(self) -> int:
        """Worst case: obey tRC before activating the new row."""
        return max(self.t_rc, self.t_ras + self.t_rp) + self.t_rcd + self.t_cl


@dataclass(frozen=True)
class ClockSkewModel:
    """Parameters of the per-SM ``clock()`` register skew model.

    The paper (Section 4.1, Figure 6) measured that SMs within a TPC differ
    by fewer than 5 cycles, SMs within a GPC by fewer than 15 cycles, while
    different GPCs can differ by billions of cycles (up to a 4x factor)
    because their clock registers started counting at very different times.
    """

    #: Spread of per-GPC base offsets (cycles).  Volta measurements showed
    #: register values between ~1e9 and ~5e9 across GPCs.
    gpc_base_min: int = 1_000_000_000
    gpc_base_max: int = 5_000_000_000
    #: Maximum extra offset between TPCs of the same GPC.
    tpc_jitter: int = 12
    #: Maximum extra offset between the two SMs of a TPC.
    sm_jitter: int = 4
    #: Per-read measurement jitter (sampling noise of the clock read itself).
    read_jitter: int = 2


#: Environment knobs for the sweep-supervision defaults (see
#: :meth:`SweepSupervision.from_env`).
SWEEP_TIMEOUT_ENV = "REPRO_SWEEP_TIMEOUT_S"
SWEEP_ATTEMPTS_ENV = "REPRO_SWEEP_ATTEMPTS"
SWEEP_BACKOFF_ENV = "REPRO_SWEEP_BACKOFF_S"


@dataclass(frozen=True)
class SweepSupervision:
    """Fault-tolerance policy for supervised sweep execution.

    Consumed by :func:`repro.runner.supervisor.run_supervised`: every job
    of a sweep is executed in its own worker process under a per-job
    wall-clock ``timeout_s`` and retried up to ``max_attempts`` times with
    exponential backoff.  The backoff jitter is *deterministic* — derived
    from the job's content-hash key and the attempt number, never from
    wall-clock entropy — so a replayed sweep schedules retries
    identically.

    This lives here (rather than in the runner package) because it is
    configuration in the same sense as :class:`GpuConfig`: a frozen,
    picklable record that experiments thread through unchanged.  It is
    deliberately *not* a field of :class:`GpuConfig` — how a sweep is
    babysat must not perturb result-cache keys, which hash the GPU model
    alone.
    """

    #: Per-job wall-clock budget in seconds; a worker that has not
    #: reported within it is killed and the job rescheduled.  ``None``
    #: disables the timeout (a hung worker then hangs its slot forever).
    timeout_s: float | None = None
    #: Total attempts per job (1 = no retries).  A job whose last attempt
    #: fails becomes a structured ``JobFailure`` in the sweep results.
    max_attempts: int = 3
    #: First-retry backoff in seconds; attempt ``n`` waits
    #: ``backoff_base_s * backoff_factor**(n-1)`` (capped at
    #: ``backoff_max_s``) before being rescheduled.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Fractional jitter applied on top of the exponential delay,
    #: deterministic per (job key, attempt).
    backoff_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")

    def replace(self, **changes) -> "SweepSupervision":
        """Return a copy of this policy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @staticmethod
    def from_env() -> "SweepSupervision":
        """Default policy, overridable via ``REPRO_SWEEP_*`` variables.

        ``REPRO_SWEEP_TIMEOUT_S`` (float seconds), ``REPRO_SWEEP_ATTEMPTS``
        (int) and ``REPRO_SWEEP_BACKOFF_S`` (float, first-retry delay) let
        CI wrap every sweep command in a safety net without per-command
        flags.  Unset or unparsable variables fall back to the dataclass
        defaults.
        """
        import os

        changes: Dict[str, object] = {}
        raw = os.environ.get(SWEEP_TIMEOUT_ENV)
        if raw:
            try:
                changes["timeout_s"] = float(raw)
            except ValueError:
                pass
        raw = os.environ.get(SWEEP_ATTEMPTS_ENV)
        if raw:
            try:
                changes["max_attempts"] = int(raw)
            except ValueError:
                pass
        raw = os.environ.get(SWEEP_BACKOFF_ENV)
        if raw:
            try:
                changes["backoff_base_s"] = float(raw)
            except ValueError:
                pass
        return SweepSupervision(**changes)  # type: ignore[arg-type]


#: Inter-GPU link topologies accepted by :class:`LinkConfig`.
LINK_TOPOLOGIES = ("ring", "full", "switch")


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of an inter-GPU (NVLink-class) fabric.

    Consumed by :class:`repro.interconnect.MultiGpuSystem`: ``num_devices``
    identical GPUs are joined by point-to-point links whose shape is
    expressed as data by ``topology``.  Like :class:`SweepSupervision`,
    this is deliberately *not* a set of :class:`GpuConfig` fields — the
    golden store and result cache hash the single-GPU model alone, and a
    fabric wrapped around N unmodified devices must not perturb those
    keys.  Link parameters reach workloads through job ``params`` instead.
    """

    #: Number of identical GPU devices in the system.
    num_devices: int = 2
    #: Fabric shape: "ring" (bidirectional ring, NVLink bridge style),
    #: "full" (a direct link per device pair, DGX hybrid-mesh style) or
    #: "switch" (every device hangs off one central crossbar, NVSwitch
    #: style).
    topology: str = "ring"
    #: Flits per cycle a link serializes.  With 40-byte flits, width 4 at
    #: 1200 MHz core clock ≈ 192 GB/s — a pair of bonded NVLink3 bricks.
    link_width: int = 4
    #: One-way link traversal latency in core cycles (serdes + retimer +
    #: PHY).  ~150 cycles each way puts an uncontended remote-L2 read at
    #: roughly 2.5x the local round trip, matching published NVLink
    #: peer-access measurements.
    link_latency: int = 150
    #: FIFO depth (flits) of the per-link TX/RX buffers.
    link_buffer_depth: int = 16
    #: Arbitration policy of the per-device fabric egress router.
    arbitration: str = "rr"

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        if self.topology not in LINK_TOPOLOGIES:
            raise ValueError(
                f"unknown link topology {self.topology!r}; "
                f"expected one of {LINK_TOPOLOGIES}"
            )
        if self.link_width < 1:
            raise ValueError("link_width must be at least 1")
        if self.link_latency < 1:
            raise ValueError("link_latency must be at least 1")
        if self.link_buffer_depth < 1:
            raise ValueError("link_buffer_depth must be at least 1")
        if self.arbitration not in ARBITRATION_POLICIES:
            raise ValueError(
                f"unknown arbitration {self.arbitration!r}; "
                f"expected one of {ARBITRATION_POLICIES}"
            )

    def replace(self, **changes) -> "LinkConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the async sweep service (:mod:`repro.runner.service`).

    Like :class:`SweepSupervision` this is a frozen record threaded
    through unchanged, and deliberately *not* part of
    :class:`GpuConfig` — how many shards answer a request must never
    perturb result-cache keys.  Every shard runs its job in its own
    worker process under the full :class:`SweepSupervision` net
    (timeouts, retries, backoff).
    """

    #: Number of shard threads; each runs one job at a time, so this is
    #: the service's concurrency.
    shards: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")

    def replace(self, **changes) -> "ServiceConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class GpuConfig:
    """Complete configuration of the simulated GPU and its on-chip network."""

    # ------------------------------------------------------------------ #
    # Core hierarchy (Table 1: 40 TPCs, 2 SMs per TPC; V100 has 6 GPCs
    # where 4 GPCs have 7 TPCs and 2 GPCs have 6 TPCs = 40 total).
    # ------------------------------------------------------------------ #
    core_clock_mhz: int = 1200
    simt_width: int = 32
    num_gpcs: int = 6
    #: TPC count per GPC.  Sums to 40 for the default V100 (two GPCs have a
    #: disabled TPC, Section 3.3).
    tpcs_per_gpc: Tuple[int, ...] = (7, 7, 7, 7, 6, 6)
    sms_per_tpc: int = 2

    # ------------------------------------------------------------------ #
    # Memory system (Table 1: 128 KB L1/shmem per SM, 48 L2 slices of
    # 96 KB, 24 memory controllers, HBM2).
    # ------------------------------------------------------------------ #
    l1_size_bytes: int = 128 * 1024
    l1_line_bytes: int = 128
    l1_ways: int = 4
    l1_hit_latency: int = 28
    num_l2_slices: int = 48
    l2_slice_bytes: int = 96 * 1024
    l2_line_bytes: int = 128
    l2_ways: int = 16
    #: L2 replacement policy: GPU L2s use pseudo-random replacement, which
    #: lets a streaming third kernel displace the covert channel's hot
    #: lines under capacity pressure (Section 5's noise discussion);
    #: "lru" would shield the hot set artificially.
    l2_replacement: str = "random"
    #: L2 pipeline latency (cycles from request arrival to reply injection).
    #: Chosen so the uncontended round trip lands in the ~200-250 cycle
    #: range the paper measured on Volta (Section 4.1).
    l2_latency: int = 200
    #: L2 slice service throughput: one request accepted per cycle.
    l2_ports: int = 1
    num_memory_controllers: int = 24
    dram: DramTiming = field(default_factory=DramTiming)
    dram_queue_depth: int = 16

    # ------------------------------------------------------------------ #
    # Interconnect (Table 1: 1200 MHz crossbar, flit size 40, one VC,
    # two subnets: request + reply).
    # ------------------------------------------------------------------ #
    flit_bytes: int = 40
    num_vcs: int = 1
    num_subnets: int = 2
    #: Arbitration policy used by every mux: "rr", "crr", "srr", "age",
    #: "fixed" or "random".
    arbitration: str = "rr"
    #: Flits per cycle accepted by the TPC injection channel (2:1 mux, no
    #: speedup — this is the shared resource behind the TPC covert channel).
    tpc_channel_width: int = 1
    #: Flits per cycle accepted by the GPC channel (7:1 mux *with* speedup;
    #: the paper infers a speedup because 7 write-streaming TPCs only lose
    #: ~15% — 7 inputs over width 6 ≈ 1.17x oversubscription).
    gpc_channel_width: int = 6
    #: Flits per cycle on the reply path back into a GPC.  Lower than the
    #: request width: read replies carry whole cache sectors, so the read
    #: traffic of one SM per TPC oversubscribes it roughly 2x with 7 TPCs
    #: active (Fig 5b: degradation onset at 4 TPCs, ~2.1x at 7) while up
    #: to 3 TPCs fit within it.
    gpc_reply_width: int = 3
    #: Flits per cycle delivered to each TPC on the reply path.
    tpc_reply_width: int = 4
    #: Crossbar per-port width (flits/cycle) between GPCs and L2 slices.
    xbar_width: int = 8
    #: FIFO depth (flits) of every NoC buffer.
    buffer_depth: int = 8
    #: Reply-path buffering at the L2 slices: True (default) gives each
    #: slice one virtual output queue per destination GPC, so replies
    #: bound for a congested GPC never head-of-line-block other GPCs'
    #: replies.  False is the single-FIFO ablation: under multi-GPC load
    #: HOL blocking couples every GPC's latency to the most congested
    #: reply port (cross-channel noise explodes — see the ablation
    #: benchmark).
    reply_voq: bool = True

    # ------------------------------------------------------------------ #
    # Packet geometry (in flits).  A write carries data on the request
    # subnet; a read request is a single header flit but its reply carries
    # the sector data.
    # ------------------------------------------------------------------ #
    read_request_flits: int = 1
    read_reply_flits: int = 4
    #: A write carries its data on the request subnet (header + a 128-byte
    #: line over 40-byte flits), which is why write traffic saturates the
    #: narrow TPC injection channel so effectively (Section 3.4).
    write_request_flits: int = 4
    #: Write completions: 0 means posted writes are acknowledged at the L2
    #: without a reply packet (credits return directly, the GPU-typical
    #: behaviour); a positive value sends that many flits on the reply
    #: subnet instead.
    write_reply_flits: int = 0

    # ------------------------------------------------------------------ #
    # SM microarchitecture.
    # ------------------------------------------------------------------ #
    #: Maximum outstanding read requests per SM (MSHR window).  Reads are
    #: latency-bound: issue rate ≈ mshrs / round-trip, which is why two
    #: SMs' reads do not contend on the TPC channel while writes do.
    sm_mshrs: int = 64
    #: Maximum in-flight posted writes per SM before the LSU stalls.  Large
    #: enough that a streaming-write SM stays channel-bound (saturating its
    #: TPC injection channel) rather than ack-latency-bound.
    sm_write_buffer: int = 128
    #: Warps the scheduler can issue memory ops from per cycle.
    sm_issue_width: int = 1
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32

    # ------------------------------------------------------------------ #
    # Clock skew model (Section 4.1 / Figure 6).
    # ------------------------------------------------------------------ #
    clock_skew: ClockSkewModel = field(default_factory=ClockSkewModel)
    #: Amount of clock fuzzing applied to clock() reads (defense knob,
    #: Section 6: "clock fuzzing"); 0 disables fuzzing.
    clock_fuzz: int = 0
    #: Aggregate per-memory-op timing noise (cycles, uniform).  Models the
    #: system effects a real GPU adds on top of deterministic contention —
    #: warp-scheduler wake-up jitter, DRAM refresh, replays.  This is the
    #: noise floor that makes low-iteration covert-channel slots error
    #: prone (Figure 10) until more iterations average it out.  Seeded and
    #: fully deterministic; set 0 for a noise-free machine.
    timing_noise: int = 64

    #: Master seed for all simulator randomness.
    seed: int = 2021

    #: Simulation-engine scheduling strategy: "active" (event-driven
    #: active-set scheduling with quiescence fast-forward, sparse NoC
    #: ticks and backpressure parking; the default) or "naive" (the
    #: reference tick-everything loop over the scalar ticks).  Both are
    #: cycle-exact with respect to each other; "naive" exists for
    #: equivalence testing and as a fallback while debugging new
    #: components.
    engine_strategy: str = "active"

    #: Simulation-integrity validation (repro.validate): a conservation
    #: InvariantChecker audits packet delivery, queue flit accounting and
    #: switch reserve/commit state, raising a structured
    #: InvariantViolation naming the cycle and component on the first
    #: inconsistency.  Off by default; the disabled configuration costs
    #: one branch per hook site (same pattern as telemetry) and seeded
    #: runs are bit-identical either way (the checker only reads state).
    validate_enabled: bool = False
    #: Cycles between invariant audits (1 = every cycle).  Larger values
    #: keep quiescence fast-forward effective on long idle stretches.
    validate_interval: int = 1

    #: NoC telemetry (repro.telemetry): flit-event tracing, latency
    #: histograms and per-epoch utilization timelines.  Off by default;
    #: the disabled configuration costs one branch per instrumentation
    #: site and seeded runs are bit-identical either way.
    telemetry_enabled: bool = False
    #: Event ring-buffer capacity (oldest events evicted beyond this).
    telemetry_ring_capacity: int = 65536
    #: Cycles per utilization/occupancy timeline epoch.
    telemetry_epoch_cycles: int = 64

    #: Engine self-profiling (repro.metrics): sampled active-set sizes
    #: and a fast-forward span histogram, exported through the
    #: per-process metrics registry.  Off by default; the profiler only
    #: *reads* scheduler state, so seeded runs stay bit-identical with it
    #: on (the lockstep oracle verifies this) and the disabled
    #: configuration costs one branch per hook site.
    metrics_enabled: bool = False
    #: Cycles between active-set size samples.  Sampling (rather than
    #: recording every cycle) is what keeps enabled overhead under the
    #: 2% acceptance bar at full-Volta scale.
    metrics_interval: int = 64

    # ------------------------------------------------------------------ #
    # Derived quantities.
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if len(self.tpcs_per_gpc) != self.num_gpcs:
            raise ValueError(
                f"tpcs_per_gpc has {len(self.tpcs_per_gpc)} entries "
                f"but num_gpcs={self.num_gpcs}"
            )
        if self.arbitration not in ARBITRATION_POLICIES:
            raise ValueError(
                f"unknown arbitration {self.arbitration!r}; "
                f"expected one of {ARBITRATION_POLICIES}"
            )
        if self.engine_strategy not in ENGINE_STRATEGIES:
            raise ValueError(
                f"unknown engine_strategy {self.engine_strategy!r}; "
                f"expected one of {ENGINE_STRATEGIES}"
            )
        check_cache_geometry(self.l1_size_bytes, self.l1_line_bytes,
                             self.l1_ways, "L1 cache")
        check_cache_geometry(self.l2_slice_bytes, self.l2_line_bytes,
                             self.l2_ways, "L2 cache")
        if self.validate_interval <= 0:
            raise ValueError("validate_interval must be positive")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")

    @property
    def num_tpcs(self) -> int:
        return sum(self.tpcs_per_gpc)

    @property
    def num_sms(self) -> int:
        return self.num_tpcs * self.sms_per_tpc

    @property
    def core_clock_hz(self) -> float:
        return self.core_clock_mhz * 1e6

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at the core clock."""
        return cycles / self.core_clock_hz

    def replace(self, **changes) -> "GpuConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Topology mapping: logical TPC ids are interleaved across GPCs
    # (Section 3.3 / Figure 4): TPC0->GPC0, TPC1->GPC1, ..., TPC6->GPC0.
    # Physically every GPC has max(tpcs_per_gpc) TPC slots; GPCs with
    # fewer *enabled* TPCs (the V100's two disabled TPCs) have their
    # disabled slots just before the final rotation round, so the tail of
    # the mapping is imperfectly interleaved: GPC5 holds TPC 5, 11, 17,
    # 23, 29 and then 39 — not 35, which lands in GPC1 (the paper's
    # reverse-engineered Figure 4).
    # ------------------------------------------------------------------ #
    def tpc_to_gpc_map(self) -> List[int]:
        """Logical TPC id -> GPC id (enabled TPCs in physical slot order)."""
        max_rounds = max(self.tpcs_per_gpc)
        mapping: List[int] = []
        for round_index in range(max_rounds):
            for gpc, enabled in enumerate(self.tpcs_per_gpc):
                # A GPC with k enabled TPCs fills rounds 0..k-2 and the
                # final round; its disabled slots occupy rounds k-1 ..
                # max_rounds-2.
                if round_index < enabled - 1 or round_index == max_rounds - 1:
                    mapping.append(gpc)
        return mapping

    def gpc_members(self) -> Dict[int, List[int]]:
        """GPC id -> ordered list of logical TPC ids it contains."""
        members: Dict[int, List[int]] = {g: [] for g in range(self.num_gpcs)}
        for tpc, gpc in enumerate(self.tpc_to_gpc_map()):
            members[gpc].append(tpc)
        return members

    def sm_to_tpc(self, sm_id: int) -> int:
        """Logical SM id -> TPC id (SM 2i and 2i+1 share TPC i)."""
        self._check_sm(sm_id)
        return sm_id // self.sms_per_tpc

    def sm_to_gpc(self, sm_id: int) -> int:
        """Logical SM id -> GPC id."""
        return self.tpc_to_gpc_map()[self.sm_to_tpc(sm_id)]

    def tpc_sms(self, tpc_id: int) -> List[int]:
        """TPC id -> the SM ids it contains."""
        if not 0 <= tpc_id < self.num_tpcs:
            raise ValueError(f"tpc_id {tpc_id} out of range")
        base = tpc_id * self.sms_per_tpc
        return list(range(base, base + self.sms_per_tpc))

    def _check_sm(self, sm_id: int) -> None:
        if not 0 <= sm_id < self.num_sms:
            raise ValueError(f"sm_id {sm_id} out of range [0, {self.num_sms})")

    def address_to_slice(self, address: int) -> int:
        """Map a byte address to its L2 slice (line-interleaved)."""
        return (address // self.l2_line_bytes) % self.num_l2_slices


def check_cache_geometry(size_bytes: int, line_bytes: int, ways: int,
                         what: str = "cache") -> None:
    """Raise ``ValueError`` unless the size is a positive multiple of
    ``line_bytes * ways`` (a whole number of sets)."""
    if (line_bytes <= 0 or ways <= 0 or size_bytes <= 0
            or size_bytes % (line_bytes * ways)):
        raise ValueError(
            f"invalid {what} geometry: {size_bytes}B / {line_bytes}B "
            f"lines / {ways} ways (size must be a positive multiple "
            f"of {line_bytes * ways}B)"
        )


#: Table 1 configuration: the Volta V100-like GPU evaluated in the paper.
VOLTA_V100 = GpuConfig()

#: Pascal P100-like configuration (Section 5, "Other GPU Architectures":
#: the paper confirmed the same covert channels on Pascal).  GP100 pairs
#: SMs into 28 TPCs over 6 GPCs with a 4 MB L2 over 32 slices.
PASCAL_P100 = GpuConfig(
    core_clock_mhz=1328,
    num_gpcs=6,
    tpcs_per_gpc=(5, 5, 5, 5, 4, 4),
    num_l2_slices=32,
    l2_slice_bytes=128 * 1024,
    num_memory_controllers=16,
)

#: Turing TU104-like configuration (Section 5: Turing also confirmed
#: vulnerable).  TU104: 6 GPCs x 4 TPCs x 2 SMs, 4 MB L2.
TURING_TU104 = GpuConfig(
    core_clock_mhz=1545,
    num_gpcs=6,
    tpcs_per_gpc=(4, 4, 4, 4, 4, 4),
    num_l2_slices=32,
    l2_slice_bytes=128 * 1024,
    num_memory_controllers=16,
)

#: Every architecture preset the suite can exercise (Section 5: "All of
#: the GPU architectures had a hierarchical network organization that
#: shares interconnect bandwidth through concentration").
ARCHITECTURES = {
    "volta": VOLTA_V100,
    "pascal": PASCAL_P100,
    "turing": TURING_TU104,
}


def small_config(**changes) -> GpuConfig:
    """A scaled-down GPU (2 GPCs x 2 TPCs x 2 SMs, 8 L2 slices) for tests.

    Keeps every mechanism of the full configuration (hierarchical muxes,
    speedup, subnets) while running an order of magnitude faster.
    """
    base = GpuConfig(
        num_gpcs=2,
        tpcs_per_gpc=(2, 2),
        num_l2_slices=8,
        num_memory_controllers=4,
    )
    return base.replace(**changes) if changes else base


def medium_config(**changes) -> GpuConfig:
    """A mid-size GPU (2 GPCs with 5+4 TPCs, 18 SMs) for GPC-level tests.

    Large enough that one GPC's sender TPCs oversubscribe the GPC reply
    channel (the GPC covert channel's mechanism needs >= 4 read-streaming
    SMs per GPC), yet ~4x cheaper to simulate than the full V100.
    """
    base = GpuConfig(
        num_gpcs=2,
        tpcs_per_gpc=(5, 4),
        num_l2_slices=16,
        num_memory_controllers=8,
    )
    return base.replace(**changes) if changes else base
