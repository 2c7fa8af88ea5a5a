"""Experiment runner: job dispatch, parallel fan-out, result caching."""

import json

import pytest

from repro.config import small_config
from repro.runner import (
    ResultCache, SimJob, SweepError, code_version, run_supervised,
)
from repro.runner.cache import canonical_json
from repro.runner.runner import execute, resolve


def double(config, factor=2):
    """Trivial module-level workload (picklable by dotted path)."""
    return {"seed": config.seed, "value": config.seed * factor}


DOUBLE = f"{__name__}.double"


def run_strict(jobs, **kwargs):
    """Supervised sweep results in job order; raises on failed jobs."""
    outcome = run_supervised(jobs, **kwargs)
    if outcome.failures:
        raise SweepError(outcome.failures, outcome.results)
    return outcome.results


class TestResolve:
    def test_resolves_dotted_path(self):
        assert resolve(DOUBLE) is double

    def test_rejects_bare_names_and_missing_attrs(self):
        with pytest.raises(ValueError):
            resolve("double")
        with pytest.raises(ValueError):
            resolve("repro.runner.runner.nonexistent")

    def test_execute_applies_seed_override_and_roundtrips(self):
        job = SimJob(fn=DOUBLE, config=small_config(), seed=99,
                     params={"factor": 3})
        result = execute(job)
        assert result == {"seed": 99, "value": 297}
        # JSON round trip: keys are plain str, values plain int.
        assert json.loads(json.dumps(result)) == result


class TestFanOut:
    def _jobs(self, count=4):
        config = small_config()
        return [SimJob(fn=DOUBLE, config=config, seed=seed)
                for seed in range(1, count + 1)]

    def test_inline_preserves_job_order(self):
        results = run_strict(self._jobs(), workers=1)
        assert [r["seed"] for r in results] == [1, 2, 3, 4]

    def test_parallel_matches_inline(self):
        jobs = self._jobs(6)
        assert run_strict(jobs, workers=3) == run_strict(jobs, workers=1)

    def test_progress_callback_sees_every_completion(self):
        seen = []
        run_strict(self._jobs(3), workers=1,
                   progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_empty_job_list(self):
        assert run_strict([], workers=2) == []


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [SimJob(fn=DOUBLE, config=small_config(), seed=5)]
        first = run_strict(jobs, workers=1, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        second = run_strict(jobs, workers=1, cache=cache)
        assert cache.hits == 1
        assert second == first

    def test_key_sensitive_to_config_params_and_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = small_config()
        base = cache.key(DOUBLE, config, {"factor": 2}, seed=1)
        assert cache.key(DOUBLE, config, {"factor": 3}, seed=1) != base
        assert cache.key(DOUBLE, config, {"factor": 2}, seed=2) != base
        bigger = config.replace(num_gpcs=config.num_gpcs)
        assert cache.key(DOUBLE, bigger, {"factor": 2}, seed=1) == base
        changed = config.replace(l2_latency=config.l2_latency + 1)
        assert cache.key(DOUBLE, changed, {"factor": 2}, seed=1) != base

    def test_cached_and_fresh_results_type_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [SimJob(fn=DOUBLE, config=small_config(), seed=5)]
        fresh = run_strict(jobs, workers=1, cache=cache)[0]
        cached = run_strict(jobs, workers=1, cache=cache)[0]
        assert type(fresh) is type(cached)
        assert fresh == cached

    def test_torn_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(DOUBLE, small_config(), {}, seed=1)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key(DOUBLE, small_config(), {}, seed=1), {"x": 1})
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache().root == tmp_path / "alt"

    def test_code_version_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_canonical_json_handles_dataclasses_and_tuples(self):
        config = small_config()
        text = canonical_json({"config": config, "t": (1, 2)})
        parsed = json.loads(text)
        assert parsed["t"] == [1, 2]
        assert parsed["config"]["seed"] == config.seed


class TestCacheEntryRobustness:
    """Regressions for entry handling: any unreadable entry is a miss."""

    def _key(self, cache):
        return cache.key(DOUBLE, small_config(), {}, seed=1)

    def _write_entry(self, cache, key, text):
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_entry_without_result_key_counts_as_miss(self, tmp_path):
        # Regression: this used to escape as a KeyError and kill a sweep.
        cache = ResultCache(tmp_path)
        key = self._key(cache)
        self._write_entry(cache, key, json.dumps({"meta": {"note": "x"}}))
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_non_object_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key(cache)
        self._write_entry(cache, key, "42")  # valid JSON, wrong shape
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_malformed_entry_is_overwritable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key(cache)
        self._write_entry(cache, key, json.dumps({"wrong": True}))
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}


def flaky(config, explode=False):
    """Workload that raises when asked (for mid-sweep crash tests)."""
    if explode:
        raise RuntimeError("boom")
    return {"seed": config.seed}


FLAKY = f"{__name__}.flaky"


class TestWriteThroughCache:
    """Regression: cache puts used to happen only after the whole sweep
    finished, so a crash mid-sweep discarded every completed miss."""

    def test_inline_crash_keeps_completed_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = small_config()
        jobs = [
            SimJob(fn=FLAKY, config=config, seed=1),
            SimJob(fn=FLAKY, config=config, seed=2,
                   params={"explode": True}),
        ]
        with pytest.raises(RuntimeError, match="boom"):
            run_strict(jobs, workers=1, cache=cache)
        # Job 0 completed before the crash and must be on disk.
        key = cache.key(FLAKY, config.replace(seed=1), {})
        assert cache.get(key) == {"seed": 1}

    def test_pool_crash_keeps_completed_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = small_config()
        jobs = [SimJob(fn=FLAKY, config=config, seed=seed)
                for seed in (1, 2, 3)]

        def explode_after_first(done, total):
            if done == 1:
                raise RuntimeError("observer crash")

        with pytest.raises(RuntimeError, match="observer crash"):
            run_strict(jobs, workers=2, cache=cache,
                       progress=explode_after_first)
        hits = sum(
            cache.get(cache.key(FLAKY, config.replace(seed=s), {}))
            is not None
            for s in (1, 2, 3)
        )
        assert hits >= 1

    def test_progress_crash_tears_the_pool_down(self, tmp_path):
        import multiprocessing

        config = small_config()
        jobs = [SimJob(fn=FLAKY, config=config, seed=seed)
                for seed in range(1, 5)]

        def explode(done, total):
            raise RuntimeError("observer crash")

        with pytest.raises(RuntimeError, match="observer crash"):
            run_strict(jobs, workers=2, progress=explode)
        assert multiprocessing.active_children() == []


class TestQuarantine:
    """Corrupt cache entries are moved aside and surfaced, not silently
    re-missed (or worse, replayed)."""

    def _put(self, cache):
        key = cache.key(DOUBLE, small_config(), {}, seed=1)
        cache.put(key, {"x": 1})
        return key

    def test_checksum_mismatch_quarantines(self, tmp_path):
        import json as _json

        cache = ResultCache(tmp_path)
        key = self._put(cache)
        path = cache._path(key)
        entry = _json.loads(path.read_text())
        entry["result"]["x"] = 999  # bit-rot
        path.write_text(_json.dumps(entry))
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        record = cache.quarantines[0]
        assert record["key"] == key
        assert "checksum mismatch" in record["reason"]
        assert (tmp_path / "_quarantine").is_dir()

    def test_torn_json_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put(cache)
        cache._path(key).write_text("{torn")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert "torn" in cache.quarantines[0]["reason"]

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.quarantined == 0

    def test_quarantined_slot_is_repopulatable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put(cache)
        cache._path(key).write_text("{torn")
        assert cache.get(key) is None
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}
        # The quarantined evidence file survives a clear().
        assert cache.clear() == 1
        assert list((tmp_path / "_quarantine").glob("*.json"))

    def test_legacy_entry_without_checksum_still_hits(self, tmp_path):
        import json as _json

        cache = ResultCache(tmp_path)
        key = cache.key(DOUBLE, small_config(), {}, seed=1)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps({"result": {"x": 5}, "meta": {}}))
        assert cache.get(key) == {"x": 5}
        assert cache.quarantined == 0

    def test_quarantine_names_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put(cache)
        for _ in range(2):
            cache._path(key).write_text("{torn")
            assert cache.get(key) is None
        assert cache.quarantined == 2
        assert len(list((tmp_path / "_quarantine").glob("*.json"))) == 2


class TestJobKey:
    def test_matches_cache_key(self, tmp_path):
        from repro.runner import job_key

        cache = ResultCache(tmp_path)
        config = small_config()
        assert job_key(DOUBLE, config, {"factor": 2}) == cache.key(
            DOUBLE, config, {"factor": 2}
        )


class TestCodeVersionRefresh:
    """Regressions for the memoised code_version going stale in-process."""

    def test_refresh_replaces_a_stale_memo(self, monkeypatch):
        import repro.runner.cache as cache_mod

        real = code_version()
        monkeypatch.setattr(cache_mod, "_code_version", "stale-memo")
        assert code_version() == "stale-memo"  # the memo is served as-is
        assert code_version(refresh=True) == real

    def test_cache_construction_refreshes_the_memo(self, tmp_path,
                                                   monkeypatch):
        import repro.runner.cache as cache_mod

        real = code_version()
        monkeypatch.setattr(cache_mod, "_code_version", "stale-memo")
        cache = ResultCache(tmp_path)
        assert cache.code_version == real
        assert code_version() == real  # the module memo was replaced too

    def test_unchanged_tree_reads_no_file_on_refresh(self, tmp_path,
                                                     monkeypatch):
        from pathlib import Path

        from repro.runner.cache import source_version

        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("A = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("B = 2\n")
        version = source_version(tmp_path)

        def no_read(path):
            raise AssertionError(f"re-read {path} of an unchanged tree")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        assert source_version(tmp_path) == version

    def test_touched_file_changes_the_version(self, tmp_path):
        import os

        from repro.runner.cache import source_version

        source = tmp_path / "a.py"
        source.write_text("A = 1\n")
        stat = source.stat()
        version = source_version(tmp_path)
        # Same size and mtime would hide the edit; the fingerprint
        # differs here in mtime only.
        source.write_text("A = 2\n")
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        assert source_version(tmp_path) != version

    def test_keys_use_the_cache_pinned_version(self, tmp_path, monkeypatch):
        import repro.runner.cache as cache_mod

        cache = ResultCache(tmp_path)
        key_before = cache.key(DOUBLE, small_config(), {}, seed=1)
        # A later stale memo must not change this cache's keys.
        monkeypatch.setattr(cache_mod, "_code_version", "stale-memo")
        assert cache.key(DOUBLE, small_config(), {}, seed=1) == key_before

    def test_put_records_code_version_in_meta(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(DOUBLE, small_config(), {}, seed=1)
        cache.put(key, {"x": 1}, meta={"note": "hello"})
        meta = cache.meta(key)
        assert meta["code_version"] == cache.code_version
        assert meta["note"] == "hello"

    def test_meta_absent_for_missing_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.meta("0" * 64) is None
