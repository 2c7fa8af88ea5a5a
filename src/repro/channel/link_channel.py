"""Inter-GPU (NVLink-class) link-contention covert channel.

The on-chip channels modulate a TPC or GPC mux; the link channel ports
the same protocol one level up the hierarchy, to the serializing link of
a :class:`~repro.interconnect.MultiGpuSystem` fabric:

* the **trojan** runs on GPU0 and, for a '1' bit, streams posted remote
  writes at GPU1's L2 (peer access over NVLink);
* the **spy** also runs on GPU0 and times remote reads against lines it
  preloaded into GPU1's L2.

Both traffic streams meet in GPU0's fabric egress queue and then in the
GPU0→GPU1 link serializer, so a streaming trojan inflates the spy's
remote round-trip the same way a streaming TPC neighbour inflates a
local probe — the paper's mechanism, transplanted onto the inter-GPU
interconnect.  The *contended resource* is per device, not per TPC, so
trojan and spy merely have to be resident on the same source GPU — but
the *clock synchronization* still demands co-location: per-SM clock
registers in different GPCs differ by billions of cycles (Section 4.1),
which makes independent mask-boundary syncs land a random fraction of
the mask period apart.  The channel therefore reuses the scheduling
trick of the on-chip channels: sender and receiver grids are one block
per TPC (only block 0 does any work; the rest idle out), which
co-locates the two block-0 warps on the two SMs of TPC 0 where the
skew is a few cycles.

Timing is Algorithm 2 unchanged — clock-mask synchronization, fixed
slots, threshold decoding — with slots stretched to cover the remote
round-trip (hundreds of cycles one-way) instead of the on-chip L2 trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import GpuConfig, LinkConfig
from ..gpu.kernel import Kernel
from ..interconnect import MultiGpuSystem
from .base import CovertChannelBase
from .protocol import (
    ChannelParams,
    receiver_program,
    region_bytes,
    sender_program,
)


class LinkCovertChannel(CovertChannelBase):
    """Covert channel over one inter-GPU link of a multi-device system.

    Calibration, transmission and decoding are
    :class:`~repro.channel.base.CovertChannelBase`'s, over one channel
    (the single contended link); this class supplies only the fabric
    build in :meth:`_run`.

    Parameters
    ----------
    config:
        Per-device GPU configuration (all devices identical).
    link:
        Fabric shape; defaults to a 2-device ring.  ``target_device``
        must be reachable from device 0 under this topology.
    params:
        Protocol parameters; ``default_params`` stretches the slots for
        the remote round-trip.
    target_device:
        The device whose L2 both roles address remotely (the far end of
        the contended link).  Trojan and spy always run on device 0.
    """

    def __init__(
        self,
        config: GpuConfig,
        link: Optional[LinkConfig] = None,
        params: Optional[ChannelParams] = None,
        seed_salt: int = 0,
        target_device: int = 1,
    ) -> None:
        super().__init__(config, params, seed_salt)
        self.link = link if link is not None else LinkConfig()
        if not 0 < target_device < self.link.num_devices:
            raise ValueError(
                f"target_device {target_device} not in this "
                f"{self.link.num_devices}-device fabric (or is the "
                f"attacker's own device 0)"
            )
        self.target_device = target_device

    def default_params(self) -> ChannelParams:
        """Slot timing sized for the remote round-trip.

        A remote read pays serialization plus flight latency both ways on
        top of the far L2 lookup (~500+ cycles uncontended at default
        link parameters, versus ~200 on-chip), and a contended probe must
        still complete inside the slot, so both the base and the
        per-iteration term are several times the on-chip channel's.
        """
        return ChannelParams(
            iterations=2,
            slot_base=2000,
            slot_per_iteration=3000,
            sender_warps=2,
            sync_mask=(1 << 15) - 1,
        )

    def _role_blocks(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Block 0 of each grid carries the one channel (the link)."""
        return {0: 0}, {0: 0}

    # -- transmission ---------------------------------------------------- #
    def _run(
        self, per_channel: List[List[int]]
    ) -> Tuple[Dict[int, List[float]], int]:
        """One transmission over a freshly built multi-GPU system."""
        config = self.config
        params = self.params
        line = config.l2_line_bytes
        region = region_bytes(params, line)
        sender_base = 0
        receiver_base = params.sender_warps * region
        measurements: Dict[Tuple[int, int], float] = {}
        system = MultiGpuSystem(
            config, self.link, seed_salt=self.seed_salt
        )
        attacker = system.devices[0]
        target = system.devices[self.target_device]
        # Both roles touch *remote* lines only; preload them in the far
        # L2 so every access hits there (Section 4.2's discipline).
        target.preload_region(sender_base, params.sender_warps * region)
        target.preload_region(receiver_base, region)
        # One block per TPC, only block 0 active: the dispatch order
        # then co-locates sender block 0 and receiver block 0 on the
        # two SMs of TPC 0, whose clock registers agree to a few cycles
        # — the mask-boundary sync is meaningless across GPCs.
        sender_kernel = Kernel(
            sender_program,
            num_blocks=config.num_tpcs,
            warps_per_block=params.sender_warps,
            args={
                "params": params,
                "channel_bits": {0: per_channel[0]},
                "base_for": {0: sender_base},
                "line_bytes": line,
                "levels": None,
                "channel_of": {0: 0},
                "target_device": self.target_device,
            },
            name="trojan",
        )
        receiver_kernel = Kernel(
            receiver_program,
            num_blocks=config.num_tpcs,
            warps_per_block=1,
            args={
                "params": params,
                "num_symbols": {0: len(per_channel[0])},
                "base_for": {0: receiver_base},
                "line_bytes": line,
                "measurements": measurements,
                "channel_of": {0: 0},
                "target_device": self.target_device,
            },
            name="spy",
        )
        attacker.launch(sender_kernel)
        attacker.launch(receiver_kernel)
        start = system.cycle
        system.engine.run_until(
            lambda: sender_kernel.done and receiver_kernel.done,
            max_cycles=20_000_000,
            check_every=16,
        )
        cycles = system.cycle - start
        sender_sm = sender_kernel.blocks[0].sm_id
        receiver_sm = receiver_kernel.blocks[0].sm_id
        if sender_sm is None or receiver_sm is None:
            raise RuntimeError("a channel block was never dispatched")
        if config.sm_to_tpc(sender_sm) != config.sm_to_tpc(receiver_sm):
            raise RuntimeError(
                f"link channel: sender on SM {sender_sm}, receiver on "
                f"SM {receiver_sm} — not co-located, clock sync is void"
            )
        if config.telemetry_enabled:
            # One manifest per device.
            self.last_telemetry = {
                f"device{d}": device.telemetry_manifest()
                for d, device in enumerate(system.devices)
            }
        series = [
            measurements.get((0, slot), 0.0)
            for slot in range(len(per_channel[0]))
        ]
        return {0: series}, cycles
