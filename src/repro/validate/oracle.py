"""Lockstep oracle: the naive engine as ground truth for the active one.

The active-set engine's park/wake bookkeeping — together with its sparse
NoC ticks and backpressure parking — is the
single most bug-prone piece of the simulator: a component that parks one
cycle too long produces timing that is subtly — not obviously — wrong,
and the covert channel *is* timing.  The oracle makes the equivalence
claim checkable for any config and workload: it builds the same device
once per engine strategy, steps them all in lockstep, and compares
per-component :meth:`state_digest` snapshots every ``compare_every``
cycles, each strategy against the first (the baseline).

On a mismatch it does not just say "diverged somewhere before cycle N": it
rebuilds a fresh device set (seeded runs are deterministic, so a rebuild
replays identically), fast-forwards to the last matching checkpoint, and
re-steps one cycle at a time to pin the **first** divergent cycle and the
first divergent component in registration (pipeline) order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..config import ENGINE_STRATEGIES, GpuConfig
from ..gpu.device import GpuDevice

#: A stimulus launches work on a freshly built device (kernels, preloads).
#: It must be deterministic: called once per device, both calls must
#: produce the same launches for the lockstep comparison to be meaningful.
Stimulus = Callable[[GpuDevice], None]

#: Default strategy set: baseline first, then the strategies under test.
DEFAULT_STRATEGIES: Tuple[str, ...] = ("naive", "active")


@dataclass
class Divergence:
    """First point where two engine strategies disagree.

    ``naive_digest``/``active_digest`` keep their PR-2 names for
    back-compat; they hold the baseline strategy's digest and the
    divergent strategy's digest respectively (see ``baseline`` /
    ``strategy`` for which strategies those actually were).
    """

    cycle: int
    component: str
    naive_digest: object
    active_digest: object
    baseline: str = "naive"
    strategy: str = "active"

    def __str__(self) -> str:
        return (
            f"engines diverged at cycle {self.cycle} in "
            f"{self.component}: {self.baseline}={self.naive_digest!r} "
            f"{self.strategy}={self.active_digest!r}"
        )


class LockstepOracle:
    """Runs one config under several engine strategies and compares state.

    Parameters
    ----------
    config:
        Base config; ``engine_strategy`` is overridden per device.
    stimulus:
        Deterministic workload installer (may be None for an idle device).
    compare_every:
        Coarse checkpoint interval.  Larger values are cheaper (digests
        are the expensive part) without losing precision — the bisection
        pass recovers the exact cycle.
    strategies:
        Engine strategies to run in lockstep; the first is the baseline
        every other strategy is compared against.  Defaults to
        ``("naive", "active")``.
    builder:
        Optional factory called with the strategy-patched config; must
        return a built target exposing ``.engine`` and ``.all_idle`` (a
        :class:`GpuDevice` by default).  This is how multi-device
        systems join the oracle::

            LockstepOracle(
                cfg, stimulus,
                builder=lambda c: MultiGpuSystem(c, LinkConfig(2)),
                strategies=ENGINE_STRATEGIES,
            )

        Because a :class:`~repro.interconnect.MultiGpuSystem` registers
        every device and fabric component on one shared engine in a
        deterministic order, the positional digest comparison works on
        it unchanged.
    """

    def __init__(
        self,
        config: GpuConfig,
        stimulus: Optional[Stimulus] = None,
        compare_every: int = 64,
        l1_enabled: bool = False,
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        builder: Optional[Callable[[GpuConfig], object]] = None,
    ) -> None:
        if compare_every <= 0:
            raise ValueError("compare_every must be positive")
        if len(strategies) < 2:
            raise ValueError("lockstep needs at least two strategies")
        for strategy in strategies:
            if strategy not in ENGINE_STRATEGIES:
                raise ValueError(f"unknown engine strategy {strategy!r}")
        self.config = config
        self.stimulus = stimulus
        self.compare_every = compare_every
        self.l1_enabled = l1_enabled
        self.strategies = tuple(strategies)
        self.builder = builder

    # ------------------------------------------------------------------ #
    def _build(self, strategy: str):
        config = dataclasses.replace(self.config, engine_strategy=strategy)
        if self.builder is not None:
            target = self.builder(config)
        else:
            target = GpuDevice(config, l1_enabled=self.l1_enabled)
        if self.stimulus is not None:
            self.stimulus(target)
        return target

    def _build_all(self) -> List:
        return [self._build(strategy) for strategy in self.strategies]

    def _compare(
        self, devices: List[GpuDevice]
    ) -> Optional[Tuple[str, object, object, str]]:
        """First mismatch against the baseline device, or None.

        Returns ``(component_name, baseline_digest, other_digest,
        other_strategy)``.  Components are compared positionally — every
        strategy builds the identical pipeline in the identical
        registration order.
        """
        baseline = devices[0]
        base_digests: List[object] = []
        for component in baseline.engine.components:
            base_digests.append(component.state_digest())
        for device, strategy in zip(devices[1:], self.strategies[1:]):
            for da, b in zip(base_digests, device.engine.components):
                db = b.state_digest()
                if da != db:
                    return (b.name, da, db, strategy)
        return None

    # ------------------------------------------------------------------ #
    def run(self, max_cycles: int = 200_000) -> Optional[Divergence]:
        """Compare the strategies for up to ``max_cycles`` cycles.

        Returns None when every checkpoint (and the final state) matched,
        or a :class:`Divergence` pinpointing the first bad cycle.  Stops
        early once all devices report all streams drained — after one
        final checkpoint on the drained state.
        """
        devices = self._build_all()
        cycle = 0
        last_good = 0
        while cycle < max_cycles:
            step = min(self.compare_every, max_cycles - cycle)
            for device in devices:
                device.engine.step(step)
            cycle += step
            mismatch = self._compare(devices)
            if mismatch is not None:
                return self._bisect(last_good, cycle)
            last_good = cycle
            if all(device.all_idle for device in devices):
                break
        return None

    def _bisect(self, good_cycle: int, bad_cycle: int) -> Divergence:
        """Replay a fresh device set and pin the first divergent cycle.

        Valid because every source of randomness is seeded from the
        config: the rebuilt devices retrace the original run exactly.
        """
        devices = self._build_all()
        if good_cycle:
            for device in devices:
                device.engine.step(good_cycle)
        cycle = good_cycle
        while cycle < bad_cycle:
            for device in devices:
                device.engine.step(1)
            cycle += 1
            mismatch = self._compare(devices)
            if mismatch is not None:
                name, da, db, strategy = mismatch
                return Divergence(
                    cycle, name, da, db,
                    baseline=self.strategies[0], strategy=strategy,
                )
        # The coarse pass diverged but the replay did not: the model has
        # hidden nondeterminism, which is itself a bug worth naming.
        return Divergence(
            bad_cycle, "<nondeterministic>",
            "replay matched", "original run diverged",
            baseline=self.strategies[0], strategy="<any>",
        )


def verify_equivalence(
    config: GpuConfig,
    stimulus: Optional[Stimulus] = None,
    max_cycles: int = 200_000,
    compare_every: int = 64,
    l1_enabled: bool = False,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    builder: Optional[Callable[[GpuConfig], object]] = None,
) -> Optional[Divergence]:
    """One-shot helper: run the oracle, return its verdict."""
    oracle = LockstepOracle(
        config, stimulus, compare_every=compare_every,
        l1_enabled=l1_enabled, strategies=strategies, builder=builder,
    )
    return oracle.run(max_cycles=max_cycles)
