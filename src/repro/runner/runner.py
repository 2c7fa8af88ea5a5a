"""Parallel fan-out of independent simulation points.

Sweeps (Figure 10 iteration counts, Table 2 channels, seed replications)
are embarrassingly parallel: each point builds its own
:class:`~repro.gpu.device.GpuDevice` from a config and never shares state
with its neighbours.  A sweep is a list of :class:`SimJob`\\ s handed to
:func:`~repro.runner.supervisor.run_supervised` (one worker process per
job attempt), which returns the results in job order, consulting an
optional :class:`~repro.runner.cache.ResultCache` so repeated sweeps
replay instantly.  :func:`execute` runs one job in-process — the debuggable
entry point, and what every worker calls.

Workload functions are referenced by *dotted path* (``"pkg.mod.func"``)
rather than by object so that jobs pickle cheaply and cache keys are
stable across processes.  A workload must

* accept a :class:`~repro.config.GpuConfig` as its first argument,
  followed by keyword parameters, and
* return something JSON-serialisable (results are round-tripped through
  JSON even when fresh, so cached and uncached runs are type-identical).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from ..config import GpuConfig
from ..sim.stats import Sampler
from ..telemetry import collecting
from .cache import job_key


@dataclass(frozen=True)
class SimJob:
    """One independent simulation point.

    Attributes
    ----------
    fn:
        Dotted path of the workload function (``"repro.runner.workloads.
        fig10_point"``).
    config:
        The full GPU configuration for this point.
    params:
        Keyword arguments forwarded to the workload.
    seed:
        Optional seed override; when set, the job runs with
        ``config.replace(seed=seed)`` so sweeps over seeds need not build
        one config per replication by hand.
    """

    fn: str
    config: GpuConfig
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def resolved_config(self) -> GpuConfig:
        if self.seed is None:
            return self.config
        return self.config.replace(seed=self.seed)

    def key(self, version: Optional[str] = None) -> str:
        """The job's content-hash key in the result store and the service.

        The seed override is folded into the config it keys on, so a
        ``seed=7`` job and one whose config already says ``seed=7`` share
        a result.  ``version`` is the store's pinned code version (the
        current tree's when None).
        """
        return job_key(self.fn, self.resolved_config(), self.params,
                       version=version)


def resolve(path: str) -> Callable[..., Any]:
    """Import the workload function named by a dotted path."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ValueError(f"not a dotted function path: {path!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"{module_name} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise ValueError(f"{path} is not callable")
    return fn


def execute(job: SimJob) -> Any:
    """Run one job in-process and return its JSON round-tripped result.

    This is the debuggable entry point: no worker process and no
    supervision, so a workload's exception propagates with its original
    traceback (and a breakpoint in it is hit).  Every supervised worker
    attempt calls it too.

    Dict-shaped results from workloads that built at least one
    :class:`~repro.gpu.device.GpuDevice` gain a ``"telemetry"`` key — the
    merged metrics manifest (round-trip latency aggregates plus, with
    ``telemetry_enabled``, link/event summaries) of every device the job
    constructed.  With ``config.metrics_enabled`` they additionally gain
    a ``"metrics"`` key holding the merged engine-profile manifest of
    every profiled device.  Non-dict results and device-less workloads
    pass through unchanged.
    """
    fn = resolve(job.fn)
    with collecting() as frame:
        result = fn(job.resolved_config(), **job.params)
    manifest = frame.manifest()
    if manifest is not None and isinstance(result, dict):
        result = dict(result)
        result["telemetry"] = manifest
        metrics = frame.metrics()
        if metrics is not None:
            result["metrics"] = metrics
    return json.loads(json.dumps(result))


def merge_telemetry(results: Sequence[Any]) -> Optional[Dict[str, Any]]:
    """Aggregate the ``"telemetry"`` sections of a sweep's job results.

    Each worker process summarises its own devices; this folds the
    per-job round-trip latency summaries back into one sweep-wide
    :class:`~repro.sim.stats.Sampler` aggregate.  Returns None when no
    result carried telemetry; non-dict results (failed slots) are
    skipped.
    """
    sections = [
        result["telemetry"] for result in results
        if isinstance(result, dict) and result.get("telemetry")
    ]
    if not sections:
        return None
    merged = Sampler()
    for section in sections:
        merged.merge(Sampler.from_summary(section.get("read_latency", {})))
    return {
        "jobs": len(sections),
        "devices": sum(section.get("devices", 0) for section in sections),
        "read_latency": merged.summary(),
    }
