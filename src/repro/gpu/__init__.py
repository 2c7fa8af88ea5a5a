"""GPU model: SMs, caches, DRAM, scheduler, streams, assembled device."""

from .._lazy import lazy_exports

__all__ = [
    "BENIGN_WORKLOADS",
    "benign_footprint",
    "make_benign_kernel",
    "L1Cache",
    "SetAssociativeCache",
    "coalesce",
    "lane_addresses_coalesced",
    "lane_addresses_partial",
    "lane_addresses_uncoalesced",
    "GpuDevice",
    "MemoryController",
    "Kernel",
    "Stream",
    "ThreadBlock",
    "L2Slice",
    "ThreadBlockScheduler",
    "dispatch_order",
    "StreamingMultiprocessor",
    "MemOp",
    "ReadClock",
    "WaitClockMask",
    "WaitCycles",
    "WaitUntilClock",
    "WarpContext",
    "READ",
    "WRITE",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".caches": ("L1Cache", "SetAssociativeCache"),
        ".coalescer": (
            "coalesce", "lane_addresses_coalesced", "lane_addresses_partial",
            "lane_addresses_uncoalesced",
        ),
        ".benign": (
            "BENIGN_WORKLOADS", "benign_footprint", "make_benign_kernel",
        ),
        ".device": ("GpuDevice",),
        ".dram": ("MemoryController",),
        ".kernel": ("Kernel", "Stream", "ThreadBlock"),
        ".l2slice": ("L2Slice",),
        ".scheduler": ("ThreadBlockScheduler", "dispatch_order"),
        ".sm": ("StreamingMultiprocessor",),
        ".warp": (
            "MemOp", "ReadClock", "WaitClockMask", "WaitCycles",
            "WaitUntilClock", "WarpContext", "READ", "WRITE",
        ),
    },
)
