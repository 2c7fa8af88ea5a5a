"""Tests for the golden store, the artifact harness, and the reducer.

GoldenStore tests use fabricated samples in ``tmp_path`` so no
simulation runs; the harness and reducer tests run real (but heavily
shrunken) fig7_8 sweeps through a throwaway ``ResultCache``.
"""

import json
import shlex

import pytest

from repro.config import small_config
from repro.runner import ResultCache
from repro.testing import (
    GoldenStore,
    MissingGoldenError,
    StaleGoldenError,
    check_artifact,
    config_hash,
    get_artifact,
    reduce_failure,
    run_artifact,
    scale_config,
)
from repro.testing.golden import GOLDEN_DIR_ENV


@pytest.fixture
def store(tmp_path):
    return GoldenStore(tmp_path / "golden")


@pytest.fixture
def cfg():
    return small_config()


SAMPLES = {
    "ratio": [1.95, 2.0, 2.05],
    "series": [[1.0, 2.0], [1.1, 2.1], [0.9, 1.9]],
}


class TestGoldenStore:
    def test_record_then_load_round_trips(self, store, cfg):
        path = store.record("fig2", "small", cfg, [11, 12, 13], SAMPLES)
        assert path == store.path("fig2", "small")
        assert store.exists("fig2", "small")
        entry = store.load("fig2", "small")
        assert entry["artifact"] == "fig2"
        assert entry["config_hash"] == config_hash(cfg)
        assert entry["seeds"] == [11, 12, 13]
        assert entry["metrics"]["ratio"]["samples"] == SAMPLES["ratio"]
        assert entry["metrics"]["series"]["series"] is True

    def test_snapshot_is_valid_committed_style_json(self, store, cfg):
        path = store.record("fig2", "small", cfg, [11], SAMPLES)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["scale"] == "small"

    def test_missing_golden_raises(self, store, cfg):
        with pytest.raises(MissingGoldenError, match="golden record"):
            store.check("fig2", "small", cfg, SAMPLES)

    def test_identical_samples_pass(self, store, cfg):
        store.record("fig2", "small", cfg, [11, 12, 13], SAMPLES)
        results = store.check("fig2", "small", cfg, SAMPLES)
        assert results and all(r.ok for r in results)

    def test_large_drift_flagged_with_metric_named(self, store, cfg):
        store.record("fig2", "small", cfg, [11, 12, 13], SAMPLES)
        shifted = dict(SAMPLES, ratio=[3.0, 3.05, 3.1])
        results = store.check("fig2", "small", cfg, shifted)
        bad = [r for r in results if not r.ok]
        assert [r.metric for r in bad] == ["ratio"]
        assert "DRIFT" in bad[0].line()

    def test_small_drift_within_slack_passes(self, store, cfg):
        store.record("fig2", "small", cfg, [11, 12, 13], SAMPLES)
        nudged = dict(SAMPLES, ratio=[v * 1.01 for v in SAMPLES["ratio"]])
        assert all(r.ok for r in store.check("fig2", "small", cfg, nudged))

    def test_series_drift_detected_pointwise(self, store, cfg):
        store.record("fig2", "small", cfg, [11, 12, 13], SAMPLES)
        bent = dict(SAMPLES, series=[[1.0, 9.0], [1.1, 9.1], [0.9, 8.9]])
        results = {r.metric: r for r in store.check("fig2", "small", cfg, bent)}
        assert not results["series"].ok
        assert "series[1]" in results["series"].detail
        assert results["ratio"].ok

    def test_series_length_change_is_drift(self, store, cfg):
        store.record("fig2", "small", cfg, [11], SAMPLES)
        short = dict(SAMPLES, series=[[1.0], [1.1], [0.9]])
        results = {r.metric: r for r in store.check("fig2", "small", cfg, short)}
        assert "length" in results["series"].detail

    def test_added_and_vanished_metrics_flagged(self, store, cfg):
        store.record("fig2", "small", cfg, [11], SAMPLES)
        mutated = {"ratio": SAMPLES["ratio"], "brand_new": [1.0]}
        results = {r.metric: r for r in store.check("fig2", "small", cfg, mutated)}
        assert not results["brand_new"].ok
        assert not results["series"].ok
        assert "vanished" in results["series"].detail

    def test_config_change_raises_stale(self, store, cfg):
        store.record("fig2", "small", cfg, [11], SAMPLES)
        perturbed = cfg.replace(arbitration="srr")
        with pytest.raises(StaleGoldenError, match="golden update"):
            store.check("fig2", "small", perturbed, SAMPLES)

    def test_config_hash_ignores_seed(self, cfg):
        assert config_hash(cfg) == config_hash(cfg.replace(seed=777))
        assert config_hash(cfg) != config_hash(cfg.replace(arbitration="srr"))

    def test_missing_golden_hint_names_the_store_dir(self, store, cfg):
        with pytest.raises(MissingGoldenError) as excinfo:
            store.check("fig2", "small", cfg, SAMPLES)
        assert (
            "`python -m repro --scale small golden record --golden-dir "
            f"{shlex.quote(str(store.root))}`"
        ) in str(excinfo.value)

    def test_stale_golden_hint_names_the_store_dir(self, store, cfg):
        store.record("fig2", "small", cfg, [11], SAMPLES)
        with pytest.raises(StaleGoldenError) as excinfo:
            store.check("fig2", "small", cfg.replace(arbitration="srr"),
                        SAMPLES)
        assert (
            "`python -m repro --scale small golden update --golden-dir "
            f"{shlex.quote(str(store.root))}`"
        ) in str(excinfo.value)

    def test_default_dir_hints_need_no_flag(self, tmp_path, monkeypatch,
                                            cfg):
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path / "elsewhere"))
        store = GoldenStore()
        with pytest.raises(MissingGoldenError) as excinfo:
            store.load("fig2", "small")
        assert str(excinfo.value).endswith(
            "`python -m repro --scale small golden record`")
        store.record("fig2", "small", cfg, [11], SAMPLES)
        with pytest.raises(StaleGoldenError) as excinfo:
            store.check("fig2", "small", cfg.replace(arbitration="srr"),
                        SAMPLES)
        assert str(excinfo.value).endswith(
            "`python -m repro --scale small golden update`")

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path / "elsewhere"))
        assert GoldenStore().root == tmp_path / "elsewhere"


# Shrunken fig7_8 sweep: one seed, two fraction points, one op — runs in
# well under a second while exercising the full jobs->samples path.
TINY = {"fractions": (0.0, 1.0), "ops": 1}


class TestHarness:
    def test_scale_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown golden scale"):
            scale_config("galactic")

    def test_run_artifact_rejects_unknown_scale_without_params(self):
        with pytest.raises(ValueError, match="does not define scale"):
            run_artifact(get_artifact("fig5b"), "small")

    def test_run_artifact_folds_seed_sweep(self, tmp_path):
        samples = run_artifact(
            get_artifact("fig7_8"), "small", seeds=[11, 12], params=TINY,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert len(samples["sharing_slope"]) == 2
        assert samples["sharing_slope"][0] == pytest.approx(1.0, abs=0.1)

    def test_check_artifact_without_golden_reports_expectations(self, tmp_path):
        run = check_artifact(
            "fig7_8", "small", seeds=[11], params=TINY,
            cache=ResultCache(tmp_path / "cache"), golden=False,
        )
        assert run.expectations_passed, run.report()
        assert run.drift_results is None
        assert run.passed
        assert "GOLDEN" not in "\n".join(
            line for line in run.report().splitlines() if "PASS" in line
        )

    def test_check_artifact_with_missing_golden_fails(self, tmp_path, store):
        run = check_artifact(
            "fig7_8", "small", seeds=[11], params=TINY,
            cache=ResultCache(tmp_path / "cache"), store=store,
        )
        assert run.expectations_passed, run.report()
        assert run.drift_results is None
        assert not run.passed
        assert str(store.path("fig7_8", "small")) in run.golden_error
        assert "golden record" in run.golden_error
        assert "GOLDEN no golden for 'fig7_8'" in run.report()

    def test_check_artifact_perturbation_fails_expectations(self, tmp_path):
        run = check_artifact(
            "fig7_8", "small", seeds=[11], params=TINY,
            overrides={"arbitration": "srr"},
            cache=ResultCache(tmp_path / "cache"), golden=False,
        )
        assert not run.passed
        failed = {r.expectation_id for r in run.failed_expectations()}
        assert "fig7_8.sharing_slope" in failed
        assert "overrides={'arbitration': 'srr'}" in run.report()

    def test_to_dict_is_json_serialisable(self, tmp_path):
        run = check_artifact(
            "fig7_8", "small", seeds=[11], params=TINY,
            cache=ResultCache(tmp_path / "cache"), golden=False,
        )
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["artifact"] == "fig7_8"
        assert payload["passed"] is True


class TestReducer:
    def test_reducer_shrinks_perturbed_fig7_8(self, tmp_path):
        reduction = reduce_failure(
            "fig7_8", "fig7_8.sharing_slope", "small",
            seeds=[11],
            params={"fractions": (0.0, 0.5, 1.0), "ops": 2},
            overrides={"arbitration": "srr"},
            cache=ResultCache(tmp_path / "cache"),
        )
        # The perturbation survives every shrink...
        assert reduction.overrides["arbitration"] == "srr"
        # ...while the machine shrinks to the one-GPC ladder rung...
        assert reduction.overrides["num_gpcs"] == 1
        assert reduction.config_label == "one-gpc"
        assert "4 SMs" in reduction.config_summary()
        # ...and the workload shrinks to its fixpoint.
        assert reduction.params == {"fractions": (0.0, 1.0), "ops": 1}
        assert reduction.seeds == [11]
        command = reduction.command()
        assert command.startswith("python -m repro --scale small golden")
        assert "'fractions=(0.0,1.0)'" in command  # shell-safe quoting
        assert "arbitration=srr" in command
        assert reduction.report().count("\n") >= 3

    def test_reducer_refuses_passing_setup(self, tmp_path):
        with pytest.raises(ValueError, match="does not fail"):
            reduce_failure(
                "fig7_8", "fig7_8.sharing_slope", "small",
                seeds=[11], params=TINY,
                cache=ResultCache(tmp_path / "cache"),
            )
