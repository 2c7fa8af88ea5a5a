"""Hierarchical on-chip network: packets, buffers, arbiters, muxes, crossbar."""

from .._lazy import lazy_exports

__all__ = [
    "Packet",
    "READ",
    "WRITE",
    "PacketQueue",
    "ArbitrationPolicy",
    "RoundRobin",
    "CoarseRoundRobin",
    "StrictRoundRobin",
    "AgeBased",
    "FixedPriority",
    "RandomArbiter",
    "make_policy",
    "Mux",
    "Crossbar",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".packet": ("Packet", "READ", "WRITE"),
        ".buffer": ("PacketQueue",),
        ".arbiter": (
            "AgeBased", "ArbitrationPolicy", "CoarseRoundRobin",
            "FixedPriority", "RandomArbiter", "RoundRobin", "StrictRoundRobin",
            "make_policy",
        ),
        ".mux": ("Mux",),
        ".crossbar": ("Crossbar",),
    },
)
