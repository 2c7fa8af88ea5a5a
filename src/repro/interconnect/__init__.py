"""Multi-GPU interconnect: NVLink-class links between GpuDevices.

Public surface:

* :class:`~repro.config.LinkConfig` — fabric shape and link parameters
  (re-exported from :mod:`repro.config`).
* :func:`~repro.interconnect.topology.build_topology` — resolve a
  ``LinkConfig`` to nodes, directed links and next-hop routes.
* :class:`~repro.interconnect.system.MultiGpuSystem` — N devices on one
  engine joined by routers, serializing link pipes and ingress shims.
"""

from .._lazy import lazy_exports

__all__ = [
    "LINK_TOPOLOGIES",
    "LinkConfig",
    "FabricIngress",
    "LinkPipe",
    "FabricTopology",
    "build_topology",
    "MultiGpuSystem",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..config": ("LINK_TOPOLOGIES", "LinkConfig"),
        ".link": ("FabricIngress", "LinkPipe"),
        ".system": ("MultiGpuSystem",),
        ".topology": ("FabricTopology", "build_topology"),
    },
)
