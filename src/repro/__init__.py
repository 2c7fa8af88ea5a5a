"""repro — reproduction of "Network-on-Chip Microarchitecture-based Covert
Channel in GPUs" (Ahn et al., MICRO 2021).

The package provides:

* :mod:`repro.sim` — cycle-level simulation kernel and clock registers,
* :mod:`repro.noc` — the hierarchical GPU on-chip network (muxes, arbiters,
  crossbar) whose bandwidth sharing the attack exploits,
* :mod:`repro.gpu` — the Volta-like GPU model (SMs, caches, DRAM, streams,
  thread-block scheduler),
* :mod:`repro.reveng` — the reverse-engineering experiments of Section 3,
* :mod:`repro.channel` — the TPC/GPC covert channels of Section 4-5,
* :mod:`repro.defense` — the secure-arbitration countermeasures of
  Section 6,
* :mod:`repro.analysis` — metrics and figure/table series builders.

Quick start::

    from repro import VOLTA_V100, GpuDevice
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(VOLTA_V100)
    result = channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])
    print(result.received_symbols, result.error_rate, result.bandwidth_mbps)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ARBITRATION_POLICIES",
    "ARCHITECTURES",
    "ClockSkewModel",
    "DramTiming",
    "GpuConfig",
    "PASCAL_P100",
    "TURING_TU104",
    "VOLTA_V100",
    "medium_config",
    "small_config",
    "GpuDevice",
    "Kernel",
    "Stream",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": (
            "ARBITRATION_POLICIES",
            "ARCHITECTURES",
            "ClockSkewModel",
            "DramTiming",
            "GpuConfig",
            "PASCAL_P100",
            "TURING_TU104",
            "VOLTA_V100",
            "medium_config",
            "small_config",
        ),
        ".gpu.device": ("GpuDevice",),
        ".gpu.kernel": ("Kernel", "Stream"),
    },
    submodules=(
        "analysis", "channel", "defense", "gpu", "interconnect", "metrics",
        "noc", "reveng", "runner", "sim", "telemetry", "testing", "validate",
    ),
)
