"""Shared fixtures: scaled-down GPU configs and device factories.

The suite must be bit-reproducible run to run: every simulation seed
flows from an explicit ``GpuConfig.seed`` (default 2021), and the
property-based tests below load a derandomised Hypothesis profile so
example generation is a pure function of the test source — no hidden
RNG state, no flaky shrink targets in CI.
"""

from types import SimpleNamespace

import pytest

from repro.config import GpuConfig, VOLTA_V100, medium_config, small_config
from repro.gpu.device import GpuDevice

try:
    from hypothesis import settings

    settings.register_profile(
        "repro-deterministic", derandomize=True, deadline=None
    )
    settings.load_profile("repro-deterministic")
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


@pytest.fixture
def small_cfg() -> GpuConfig:
    return small_config()


@pytest.fixture
def medium_cfg() -> GpuConfig:
    return medium_config()


@pytest.fixture
def volta_cfg() -> GpuConfig:
    return VOLTA_V100


@pytest.fixture
def quiet_cfg() -> GpuConfig:
    """Small config without timing noise (deterministic latencies)."""
    return small_config(timing_noise=0)


@pytest.fixture
def small_device(small_cfg) -> GpuDevice:
    return GpuDevice(small_cfg)


@pytest.fixture
def quiet_device(quiet_cfg) -> GpuDevice:
    return GpuDevice(quiet_cfg)


@pytest.fixture
def inline_service(monkeypatch):
    """Run the sweep service's jobs in-process on its shard threads.

    Replaces the service's ``run_supervised`` binding with a fake that
    calls :func:`repro.runner.execute` directly: no worker processes, so
    the scheduler property tests can run hundreds of jobs, and a job's
    exception propagates to every subscriber of its key.  Like the real
    outcome, the fake's ``metrics`` carries the engine profiles of the
    jobs it ran.
    """
    from repro.metrics import MetricsRegistry
    from repro.runner import execute, service

    def fake_run_supervised(jobs, **_kwargs):
        results = [execute(job) for job in jobs]
        registry = MetricsRegistry()
        for result in results:
            if isinstance(result, dict) and result.get("metrics"):
                registry.merge_manifest(result["metrics"])
        return SimpleNamespace(
            results=results, metrics=registry.to_manifest()
        )

    monkeypatch.setattr(service, "run_supervised", fake_run_supervised)
