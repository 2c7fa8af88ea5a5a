"""NoC observability: event tracing, timelines, and Perfetto export.

Everything in this package is opt-in via ``GpuConfig.telemetry_enabled``
and structured so that the disabled configuration costs exactly one
``is not None`` branch at each instrumentation site — seeded runs are
bit-identical with telemetry on or off (asserted by tests and by
``python -m repro bench``).
"""

from .._lazy import lazy_exports

__all__ = [
    "events",
    "Collector",
    "collecting",
    "note_device",
    "chrome_trace",
    "write_chrome_trace",
    "Telemetry",
    "latency_summary",
    "LinkSeries",
    "QueueMeter",
    "Timeline",
    "TimelineProbe",
    "Tracer",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".collect": (
            "Collector", "collecting", "latency_summary", "note_device",
        ),
        ".export": ("chrome_trace", "write_chrome_trace"),
        ".hub": ("Telemetry",),
        ".timeline": ("LinkSeries", "QueueMeter", "Timeline", "TimelineProbe"),
        ".tracer": ("Tracer",),
    },
    submodules=("events",),
)
