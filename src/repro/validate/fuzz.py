"""Randomized integrity fuzzing of the full simulator.

The unit suite exercises the configurations the paper's experiments use;
the fuzzer exercises the configurations nobody thought to write a test
for.  Each case draws a small random GPU (topology, channel widths,
arbitration policy, buffering mode, packet geometry, L2 replacement,
telemetry on/off, L1 enabled or bypassed) and a random streaming
workload from a seeded RNG, then subjects it to both halves of the
integrity layer:

1. a validated run — the :class:`~repro.validate.invariants
   .InvariantChecker` audits flit conservation every cycle and the run
   must drain (every injected packet delivered exactly once);
2. the lockstep oracle — the same config and workload under the naive
   and active engine strategies must stay digest-identical.

Cases are fully reproducible: ``run_case(seed)`` rebuilds everything from
the case seed, so a CI failure line like ``case seed=17 ...`` replays
locally with ``python -m repro fuzz --seed 17 --runs 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..config import ARBITRATION_POLICIES, GpuConfig
from ..gpu.device import GpuDevice
from ..gpu.workloads import make_streaming_kernel
from .invariants import InvariantViolation
from .oracle import DEFAULT_STRATEGIES, verify_equivalence


def random_config(rng: random.Random) -> GpuConfig:
    """A small random GPU with validation always on.

    Kept deliberately tiny (2–12 SMs, 2–8 L2 slices) so a per-cycle audit
    plus a double-engine oracle run stays in the tens of milliseconds and
    the fuzz budget buys many topologies instead of a few big ones.
    """
    num_gpcs = rng.randint(1, 2)
    tpcs_per_gpc = tuple(rng.randint(1, 3) for _ in range(num_gpcs))
    num_l2_slices = rng.choice([2, 4, 8])
    return GpuConfig(
        num_gpcs=num_gpcs,
        tpcs_per_gpc=tpcs_per_gpc,
        num_l2_slices=num_l2_slices,
        num_memory_controllers=max(1, num_l2_slices // rng.choice([1, 2, 4])),
        arbitration=rng.choice(ARBITRATION_POLICIES),
        tpc_channel_width=rng.choice([1, 1, 2]),
        gpc_channel_width=rng.choice([2, 4, 6]),
        gpc_reply_width=rng.choice([2, 3, 4]),
        tpc_reply_width=rng.choice([2, 4]),
        xbar_width=rng.choice([4, 8]),
        buffer_depth=rng.choice([4, 8]),
        reply_voq=rng.random() < 0.5,
        write_reply_flits=rng.choice([0, 0, 1]),
        timing_noise=rng.choice([0, 16]),
        l2_latency=rng.randrange(20, 81),
        telemetry_enabled=rng.random() < 0.5,
        validate_enabled=True,
        validate_interval=rng.choice([1, 1, 4]),
        seed=rng.randrange(1, 100_000),
        # Packet lengths that are not a multiple of the 2/3/4/6/8-flit
        # channel widths make multi-flit grants end mid-budget.
        write_request_flits=rng.choice([2, 4, 5]),
        read_reply_flits=rng.choice([2, 4, 5]),
        l2_replacement=rng.choice(["lru", "random"]),
    )


def random_stimulus(
    rng: random.Random, config: GpuConfig
) -> Callable[[GpuDevice], None]:
    """A deterministic workload installer drawn from ``rng``.

    The kernel specs are drawn *once*; the returned closure replays them
    identically on every device it is applied to, which is what the
    lockstep oracle requires.
    """
    specs = []
    for index in range(rng.randint(1, 3)):
        footprint_lines = config.num_l2_slices * rng.choice([4, 8, 16])
        specs.append(
            dict(
                kind=rng.choice(["read", "write"]),
                ops=rng.randint(4, 24),
                base=index << 22,
                num_blocks=rng.randint(1, config.num_sms),
                warps_per_block=rng.randint(1, 2),
                uncoalesced=rng.random() < 0.7,
                footprint_lines=footprint_lines,
            )
        )
    preload = rng.random() < 0.8

    def stimulus(device: GpuDevice) -> None:
        for spec in specs:
            if preload:
                device.preload_region(
                    spec["base"],
                    spec["footprint_lines"] * device.config.l2_line_bytes,
                )
            device.launch(make_streaming_kernel(device.config, **spec))

    return stimulus


@dataclass
class FuzzCase:
    """Outcome of one fuzz case (``failure`` is None on success)."""

    seed: int
    summary: str
    cycles: int = 0
    injected: int = 0
    delivered: int = 0
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class FuzzReport:
    """Aggregate over a fuzz session."""

    cases: List[FuzzCase] = field(default_factory=list)

    @property
    def failures(self) -> List[FuzzCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def _describe(config: GpuConfig, l1_enabled: bool) -> str:
    return (
        f"gpcs={config.num_gpcs} tpcs={config.tpcs_per_gpc} "
        f"l2={config.num_l2_slices} repl={config.l2_replacement} "
        f"l1={l1_enabled} arb={config.arbitration} "
        f"voq={config.reply_voq} wreq={config.write_request_flits} "
        f"rrep={config.read_reply_flits} wack={config.write_reply_flits} "
        f"noise={config.timing_noise} tel={config.telemetry_enabled} "
        f"ival={config.validate_interval} seed={config.seed}"
    )


def run_case(
    seed: int,
    max_cycles: int = 200_000,
    oracle_cycles: int = 6_000,
    oracle: bool = True,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> FuzzCase:
    """Run one fuzz case end to end; never raises, records failures."""
    rng = random.Random(seed)
    config = random_config(rng)
    # The L1 switch is a device option, not a config field, so it is
    # drawn from the case rng right after the config.
    l1_enabled = rng.random() < 0.5
    stimulus = random_stimulus(rng, config)
    case = FuzzCase(seed=seed, summary=_describe(config, l1_enabled))
    device = GpuDevice(config, l1_enabled=l1_enabled)
    stimulus(device)
    try:
        device.run(max_cycles=max_cycles)
        device.assert_drained()
    except InvariantViolation as violation:
        case.failure = f"invariant: {violation}"
    except TimeoutError as timeout:
        case.failure = f"no-drain: {timeout}"
    finally:
        case.cycles = device.cycle
        checker = device.validator
        if checker is not None:
            case.injected = checker.injected
            case.delivered = checker.delivered
    if case.ok and oracle:
        divergence = verify_equivalence(
            config, stimulus, max_cycles=oracle_cycles,
            l1_enabled=l1_enabled, strategies=strategies,
        )
        if divergence is not None:
            case.failure = f"oracle: {divergence}"
    return case


def fuzz(
    runs: int = 25,
    seed: int = 0,
    max_cycles: int = 200_000,
    oracle_cycles: int = 6_000,
    oracle: bool = True,
    on_case: Optional[Callable[[FuzzCase], None]] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> FuzzReport:
    """Run ``runs`` cases with case seeds ``seed .. seed+runs-1``.

    ``strategies`` is forwarded to the lockstep oracle.
    """
    report = FuzzReport()
    for case_seed in range(seed, seed + runs):
        case = run_case(
            case_seed,
            max_cycles=max_cycles,
            oracle_cycles=oracle_cycles,
            oracle=oracle,
            strategies=strategies,
        )
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
    return report
