"""Statistical acceptance tests for every small-scale paper artifact.

Each test pulls its artifact's evaluated seed sweep through the
``artifact_run`` fixture (see ``tests/plugin.py``) and asserts the full
verdict: every declared expectation holds AND the committed golden
snapshot shows no statistical drift.  On failure the assertion message
is the run's report, naming the offending expectation or metric.

These are the slowest tier-1 tests (a few seconds per artifact, cached
across runs via ``.repro_cache``).  Run just this tier with::

    pytest -q -m paper_artifact --tb=line
"""

import pytest

from repro.testing import ARTIFACTS, GoldenStore, artifacts_for_scale
from tests.plugin import paper_artifact


@paper_artifact("fig2")
def test_fig2_tpc_colocation(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("fig5a")
def test_fig5a_read_write_contention(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("fig7_8")
def test_fig7_8_mux_sharing_slope(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("fig10a")
def test_fig10a_bandwidth_error_tradeoff(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("fig14")
def test_fig14_multilevel_staircase(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("fig15")
def test_fig15_arbitration_defense(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("table2")
def test_table2_channel_summary(artifact_run):
    assert artifact_run.passed, artifact_run.report()


@paper_artifact("linkchan")
def test_linkchan_link_channel(artifact_run):
    assert artifact_run.passed, artifact_run.report()


def test_every_small_artifact_has_a_marker_test():
    """Adding a small-scale artifact without a test here should fail."""
    covered = {
        "fig2", "fig5a", "fig7_8", "fig10a", "fig14", "fig15", "table2",
        "linkchan",
    }
    registered = {a.id for a in artifacts_for_scale("small")}
    assert registered == covered, (
        f"small-scale artifacts {sorted(registered - covered)} have no "
        "@paper_artifact test (or a test references a removed artifact: "
        f"{sorted(covered - registered)})"
    )


def test_every_small_artifact_has_a_committed_golden():
    """Names a missing snapshot directly; each artifact's own test would
    also fail, with a ``golden_error`` from ``check_artifact``."""
    store = GoldenStore()
    missing = [
        a.id for a in artifacts_for_scale("small")
        if not store.exists(a.id, "small")
    ]
    assert not missing, f"no committed small-scale golden for {missing}"


def test_registry_expectation_ids_are_namespaced_and_unique():
    seen = set()
    for artifact in ARTIFACTS.values():
        for exp in artifact.expectations:
            assert exp.id.startswith(artifact.id + "."), exp.id
            assert exp.id not in seen, f"duplicate expectation {exp.id}"
            seen.add(exp.id)


def test_artifact_run_fixture_requires_marker(request):
    with pytest.raises(Exception):
        request.getfixturevalue("artifact_run")
