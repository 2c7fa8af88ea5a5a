"""Per-SM hardware clock registers with a calibrated skew model.

Section 4.1 of the paper shows that NVIDIA's per-SM ``clock()`` register can
be used for sender/receiver synchronization because SMs that are physically
co-located read nearly identical values: under 5 cycles of skew within a
TPC and under 15 cycles within a GPC, while *different* GPCs differ by
billions of cycles (Figure 6 shows a ~4x spread across GPCs).

The model here reproduces exactly that structure:

``clock(sm) = engine_cycle + gpc_base[gpc] + tpc_offset[tpc] + sm_offset[sm]
              (+ read jitter) (+ optional defensive fuzz)``

where ``gpc_base`` values are drawn uniformly from a billions-wide range and
the TPC/SM offsets are bounded by the paper's measured skews.
"""

from __future__ import annotations

import random
from typing import List

from ..config import GpuConfig
from .engine import Engine


class ClockSystem:
    """Factory and reader for every SM's clock register.

    Parameters
    ----------
    config:
        GPU configuration (provides topology and the skew model).
    engine:
        The simulation engine whose cycle counter is the time base.
    seed_salt:
        Mixed into the config seed so independent devices built from the
        same config do not share offsets.
    """

    def __init__(
        self, config: GpuConfig, engine: Engine, seed_salt: int = 0
    ) -> None:
        self._config = config
        self._engine = engine
        skew = config.clock_skew
        rng = random.Random((config.seed << 16) ^ 0xC10C ^ seed_salt)
        self._rng = rng
        self._gpc_base: List[int] = [
            rng.randrange(skew.gpc_base_min, skew.gpc_base_max)
            for _ in range(config.num_gpcs)
        ]
        self._tpc_offset: List[int] = [
            rng.randrange(0, skew.tpc_jitter + 1)
            for _ in range(config.num_tpcs)
        ]
        self._sm_offset: List[int] = [
            rng.randrange(0, skew.sm_jitter + 1)
            for _ in range(config.num_sms)
        ]
        self._read_jitter = skew.read_jitter
        self._fuzz = config.clock_fuzz
        #: Per-SM static offsets, precomputed once from one TPC→GPC
        #: map: clock() is read every probe iteration, and building the
        #: map is far too expensive to repeat per read (or per SM).
        tpc_to_gpc = config.tpc_to_gpc_map()
        sms_per_tpc = config.sms_per_tpc
        self._base_offsets: List[int] = [
            self._gpc_base[tpc_to_gpc[sm // sms_per_tpc]]
            + self._tpc_offset[sm // sms_per_tpc]
            + self._sm_offset[sm]
            for sm in range(config.num_sms)
        ]
        #: RNG state right after the offset draws; reset() rewinds the
        #: per-read jitter stream to here so a device reset replays
        #: exactly like a freshly built device.
        self._initial_rng_state = rng.getstate()

    @property
    def config(self) -> GpuConfig:
        return self._config

    def base_offset(self, sm_id: int) -> int:
        """The static (cycle-independent) offset of ``sm_id``'s register."""
        return self._base_offsets[sm_id]

    def read(self, sm_id: int) -> int:
        """Read ``clock()`` on ``sm_id`` at the current engine cycle.

        Includes per-read sampling jitter and, if the defensive
        ``clock_fuzz`` knob is nonzero, a uniform random fuzz term
        (Section 6's clock-fuzzing countermeasure).
        """
        value = self._engine.cycle + self._base_offsets[sm_id]
        if self._read_jitter:
            value += self._rng.randrange(0, self._read_jitter + 1)
        if self._fuzz:
            value += self._rng.randrange(-self._fuzz, self._fuzz + 1)
        return value & 0xFFFFFFFF  # the hardware register is 32-bit

    def read_raw(self, sm_id: int) -> int:
        """Read the full-width register without truncation or jitter."""
        return self._engine.cycle + self.base_offset(sm_id)

    def skew_between(self, sm_a: int, sm_b: int) -> int:
        """Static skew (absolute difference) between two SMs' registers."""
        return abs(self.base_offset(sm_a) - self.base_offset(sm_b))

    def reset(self) -> None:
        """Rewind the jitter/fuzz stream to its post-construction state.

        The static offsets are fixed for the device's lifetime; only the
        per-read stream advances, and a device reset must rewind it so
        post-reset clock reads match a fresh device's.
        """
        self._rng.setstate(self._initial_rng_state)
