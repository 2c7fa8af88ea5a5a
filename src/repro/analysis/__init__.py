"""Metrics, figure-series builders, and table rendering."""

from .._lazy import lazy_exports

__all__ = [
    "BandwidthErrorPoint",
    "Fig10Series",
    "Table2Row",
    "fig9_latency_trace",
    "fig10_panel",
    "fig14_multilevel_trace",
    "table2_summary",
    "format_series",
    "format_table",
    "REPORT_SECTIONS",
    "generate_report",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".figures": (
            "BandwidthErrorPoint", "Fig10Series", "Table2Row",
            "fig9_latency_trace", "fig10_panel", "fig14_multilevel_trace",
            "table2_summary",
        ),
        ".report": ("REPORT_SECTIONS", "generate_report"),
        ".tables": ("format_series", "format_table"),
    },
)
