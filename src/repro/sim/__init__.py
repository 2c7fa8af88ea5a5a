"""Simulation kernel: cycle engine, clock registers, statistics."""

from .._lazy import lazy_exports

__all__ = ["Component", "Engine", "ClockSystem", "Sampler", "StatsRegistry"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("Component", "Engine"),
        ".clock": ("ClockSystem",),
        ".stats": ("Sampler", "StatsRegistry"),
    },
)
