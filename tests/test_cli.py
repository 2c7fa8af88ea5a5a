"""Tests for the command-line interface."""

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "medium", "info"])
        assert args.scale == "medium"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "info"])

    def test_fig10_panel_choices(self):
        args = build_parser().parse_args(
            ["fig10", "--panel", "multi-tpc", "--iterations", "2", "4"]
        )
        assert args.panel == "multi-tpc"
        assert args.iterations == [2, 4]


class TestNumericArguments:
    """Out-of-range numbers are argparse errors, before any job exists."""

    @pytest.fixture(autouse=True)
    def _no_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep was started")

        for target in ("repro.cli._run_sweep", "repro.runner.run_chaos",
                       "repro.validate.fuzz", "repro.testing.check_artifact"):
            monkeypatch.setattr(target, no_sweep)

    @pytest.mark.parametrize("argv", [
        ["serve", "--shards", "0"],
        ["fig10", "--iterations", "2", "0"],
        ["fig10", "--bits", "0"],
        ["fig10", "--timeout", "0"],
        ["fig10", "--retries", "-1"],
        ["linkchan", "--devices", "1"],
        ["fig10", "--workers", "0"],
        ["table2", "--workers", "-1"],
        ["linkchan", "--workers", "0"],
        ["golden", "--workers", "0", "check"],
        ["chaos", "--workers", "0"],
        ["chaos", "--jobs", "0"],
        ["chaos", "--timeout", "0"],
        ["fuzz", "--runs", "0"],
    ], ids=["shards", "iterations", "bits", "timeout", "retries", "devices",
            "fig10-workers", "table2-workers", "linkchan-workers",
            "golden-workers", "chaos-workers", "chaos-jobs",
            "chaos-timeout", "fuzz-runs"])
    def test_rejected_with_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[1]}: must be" in capsys.readouterr().err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            ["linkchan", "--devices", "2", "--iterations", "1", "--bits",
             "1", "--timeout", "0.5", "--retries", "0"]
        )
        assert (args.devices, args.iterations, args.bits) == (2, [1], 1)
        assert (args.timeout, args.retries) == (0.5, 0)
        assert build_parser().parse_args(
            ["serve", "--shards", "1"]).shards == 1
        chaos = build_parser().parse_args(
            ["chaos", "--jobs", "1", "--timeout", "0.01", "--workers", "1"]
        )
        assert (chaos.jobs, chaos.timeout, chaos.workers) == (1, 0.01, 1)
        assert build_parser().parse_args(["fuzz", "--runs", "1"]).runs == 1


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GPCs" in out
        assert "TPCs" in out

    def test_transmit_round_trip(self, capsys):
        assert main(["transmit", "--message", "ok"]) == 0
        out = capsys.readouterr().out
        assert "b'ok'" in out
        assert "error rate" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "intra-TPC skew" in out

    def test_fig2_runs(self, capsys):
        assert main(["fig2", "--ops", "6"]) == 0
        out = capsys.readouterr().out
        assert "TPC sibling" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "TPC channel" in out
        assert "GPC channel" in out

    def test_fig15_runs(self, capsys):
        assert main(["fig15", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "SRR  slope: +0.000" in out

    def test_table2_runs(self, capsys):
        assert main(["table2", "--bits", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "GPU GPC Channel (all GPCs)" in out
        assert "bandwidth (Mbps)" in out

    def test_linkchan_rerun_executes_nothing(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        manifest = tmp_path / "metrics.json"
        argv = ["linkchan", "--iterations", "1", "--bits", "4",
                "--metrics", str(manifest)]

        def attempts():
            families = json.loads(manifest.read_text())["metrics"]
            (series,) = families["sweep_attempts_total"]["series"]
            return series["value"]

        assert main(argv) == 0
        first = capsys.readouterr().out
        assert attempts() == 1
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert attempts() == 0
        assert "1 of 1 point(s) answered from the store" in second
        table = first.splitlines()[1:]  # after the "wrote" line
        assert table[0].startswith("iterations")
        assert second.splitlines()[2:] == table

    def test_fig10_single_point(self, capsys):
        assert main(
            ["fig10", "--panel", "tpc", "--iterations", "4", "--bits", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "bit rate" in out


class TestTraceCommand:
    def test_trace_transmit_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(
            ["trace", "--figure", "transmit", "--out", str(out), "--bits", "4"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "traced transmit" in stdout
        assert str(out) in stdout
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert all("ph" in e and "pid" in e for e in payload["traceEvents"])
        assert any("ts" in e for e in payload["traceEvents"])

    def test_trace_fig2_runs(self, tmp_path, capsys):
        out = tmp_path / "fig2-trace.json"
        assert main(
            ["trace", "--figure", "fig2", "--out", str(out), "--ops", "2"]
        ) == 0
        assert out.is_file()

    def test_trace_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--figure", "fig99"])


class TestFuzzCommand:
    def test_single_run_exits_zero(self, capsys):
        assert main(
            ["fuzz", "--runs", "1", "--cycles", "20000", "--no-oracle"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 case(s), 0 failure(s)" in out
        assert "ok" in out

    def test_quick_defaults_to_six_runs(self):
        args = build_parser().parse_args(["fuzz", "--quick"])
        assert args.quick and args.runs is None


class TestValidateFlag:
    def test_transmit_with_validation_enabled(self, capsys):
        assert main(["--validate", "transmit", "--message", "hi"]) == 0
        out = capsys.readouterr().out
        assert "b'hi'" in out


class TestChaosCommand:
    def test_quick_drill_writes_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "chaos-manifest.json"
        assert main(
            ["chaos", "--quiet", "--jobs", "6", "--timeout", "0.3",
             "--kind", "transient-raise", "--kind", "transient-exit",
             "--manifest", str(manifest)]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos drill: OK" in out
        assert "quarantined" in out
        payload = json.loads(manifest.read_text())
        assert payload["ok"] is True
        assert payload["jobs"] == 6
        assert payload["counters"]["failures_exception"] >= 1
        assert payload["counters"]["failures_worker_death"] >= 1

    def test_unknown_kind_exits_two(self, capsys):
        assert main(["chaos", "--kind", "meteor-strike"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_quick_defaults(self):
        args = build_parser().parse_args(["chaos", "--quick"])
        assert args.quick and args.jobs is None and args.timeout is None


class TestSweepSupervisionFlags:
    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path

    def test_parser_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["fig10", "--timeout", "30", "--retries", "2", "--keep-going"]
        )
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.keep_going

    # Recovery is a rerun of the same command: no sweep takes a resume
    # or journal option.
    @pytest.mark.parametrize("option", [["resume"], ["journal", "x.jsonl"]])
    @pytest.mark.parametrize("command", ["fig10", "table2", "linkchan"])
    def test_parser_rejects_removed_recovery_options(self, command, option,
                                                     capsys):
        name, *value = option
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, f"--{name}", *value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # A plain sweep (no supervision flag) resumes from the store too.
    @pytest.mark.parametrize(
        "flags", [[], ["--retries", "0"]], ids=["plain", "retries"]
    )
    def test_fig10_rerun_answers_from_the_store(self, capsys, flags):
        argv = ["fig10", "--iterations", "1", "--bits", "4", *flags]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "answered from the store" not in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 of 1 point(s) answered from the store" in second
        # The stored table is bit-identical to the executed one.
        assert first.splitlines()[-4:] == second.splitlines()[-4:]

        # --no-cache recomputes every point.
        assert main(argv + ["--no-cache"]) == 0
        third = capsys.readouterr().out
        assert "answered from the store" not in third
        assert third.splitlines()[-4:] == first.splitlines()[-4:]


class TestGoldenCommand:
    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.golden_dir = tmp_path / "golden"

    def _golden(self, *argv):
        return main(
            ["golden", *argv, "--golden-dir", str(self.golden_dir)]
        )

    def test_list_shows_registry_and_missing_goldens(self, capsys):
        assert self._golden("list") == 0
        out = capsys.readouterr().out
        assert "fig7_8" in out
        assert "fig7_8.sharing_slope" in out
        assert "no" in out  # nothing recorded in the isolated dir

    def test_record_then_check_round_trip(self, capsys):
        assert self._golden("record", "--artifact", "fig7_8") == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (self.golden_dir / "small" / "fig7_8.json").is_file()

        # Second record keeps the existing snapshot untouched.
        assert self._golden("record", "--artifact", "fig7_8") == 0
        assert "keep" in capsys.readouterr().out

        # The check replays from the ResultCache and passes drift.
        assert self._golden("check", "--artifact", "fig7_8") == 0
        out = capsys.readouterr().out
        assert "PASS fig7_8.sharing_slope" in out
        assert "1 passed, 0 failed" in out

    def test_check_without_golden_is_expectations_only(
        self, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        assert self._golden(
            "check", "--artifact", "fig7_8",
            "--seeds", "11", "--param", "ops=1",
            "--param", "fractions=(0.0,1.0)",
            "--report", str(report),
        ) == 0
        out = capsys.readouterr().out
        assert "1 passed, 0 failed" in out
        assert "DRIFT" not in out  # custom sweep skips the drift check
        import json

        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["artifacts"][0]["artifact"] == "fig7_8"

    def test_missing_golden_exits_two(self, capsys):
        shutil.copytree(Path(__file__).parent / "golden", self.golden_dir)
        missing = self.golden_dir / "small" / "fig7_8.json"
        missing.unlink()
        assert self._golden("check", "--artifact", "fig7_8") == 2
        out = capsys.readouterr().out
        assert str(missing) in out
        assert "golden record" in out
        assert "0 passed, 1 failed" in out

    def test_perturbed_check_fails_with_exit_one(self, capsys):
        assert self._golden(
            "check", "--artifact", "fig7_8",
            "--seeds", "11", "--param", "ops=1",
            "--param", "fractions=(0.0,1.0)",
            "--override", "arbitration=srr",
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL fig7_8.sharing_slope" in out

    @pytest.mark.parametrize("override", [
        "l2_slice_bytes=98400", "l1_ways=0", "no_such_field=1",
    ])
    def test_unbuildable_override_exits_two_before_any_job(
        self, override, capsys, monkeypatch
    ):
        import repro.testing.harness as harness

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job was dispatched")

        monkeypatch.setattr(harness, "run_supervised", no_jobs)
        assert self._golden(
            "check", "--artifact", "fig7_8", "--override", override,
        ) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("repro golden: error: bad --override: ")
        assert "\n" not in err

    @pytest.mark.parametrize("flag", ["--override", "--param"])
    def test_malformed_pair_exits_two(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            self._golden("check", "--artifact", "fig7_8", flag, "ops")
        assert exc.value.code == 2
        assert f"bad {flag} 'ops'" in capsys.readouterr().err

    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(KeyError):
            self._golden("check", "--artifact", "fig99")

    def test_bad_scale_exits_two(self, capsys):
        assert main(
            ["--scale", "pascal", "golden", "list",
             "--golden-dir", str(self.golden_dir)]
        ) == 2


class TestMetricsCommand:
    """A sweep's ``--metrics`` manifest, folded by ``metrics --merge``."""

    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path
        self.path = tmp_path / "metrics.json"

    def _manifest(self, capsys):
        assert main(
            ["fig10", "--iterations", "1", "--bits", "4",
             "--metrics", str(self.path)]
        ) == 0
        capsys.readouterr()
        return json.loads(self.path.read_text())

    def test_sweep_emits_prometheus_and_manifest(self, capsys):
        payload = self._manifest(capsys)
        assert main(["metrics", "--merge", str(self.path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sweep_jobs_total counter" in out
        assert 'sweep_jobs_total{state="completed"} 1' in out
        # Engine self-profiles from the fresh job fold into the output.
        assert "engine_profile_samples_total" in out
        assert "Infinity" not in self.path.read_text()
        families = payload["metrics"]
        assert families["sweep_jobs_total"]["kind"] == "counter"
        assert families["sweep_worker_lifetime_seconds"]["kind"] == "sampler"
        assert "engine_fast_forward_span_cycles" in families

    def test_merge_doubles_shard_counters(self, capsys):
        self._manifest(capsys)
        shard = str(self.path)
        assert main(["metrics", "--merge", shard, shard]) == 0
        out = capsys.readouterr().out
        assert 'sweep_jobs_total{state="completed"} 2' in out

    def test_merge_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["metrics"])


class TestFreshOnlyMetrics:
    """A point's engine profile counts once: in the run that simulated it.

    Real supervised workers, no inline fake: the profiles fold in
    ``run_supervised`` and, for ``serve``, on the service's loop thread.
    Every run passes ``--metrics`` so all of them key the same store
    entries.
    """

    GRID = ["--iterations", "1", "2", "--bits", "2"]

    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path

    def _families(self, capsys, *argv):
        path = self.tmp_path / "metrics.json"
        assert main([*argv, *self.GRID, "--metrics", str(path)]) == 0
        capsys.readouterr()
        return json.loads(path.read_text())["metrics"]

    @staticmethod
    def _engine(families):
        return [name for name in families if name.startswith("engine_")]

    @staticmethod
    def _jobs(families, state):
        (value,) = [s["value"] for s in families["sweep_jobs_total"]["series"]
                    if s["labels"] == {"state": state}]
        return value

    def test_serve_cold_then_warm_then_fig10_from_the_store(self, capsys):
        answers = str(self.tmp_path / "answers.json")
        cold = self._families(capsys, "serve", "--answers", answers)
        assert "engine_profile_samples_total" in cold
        assert self._jobs(cold, "completed") == 2
        (attempts,) = cold["sweep_attempts_total"]["series"]
        assert attempts["value"] == 2

        warm = self._families(capsys, "serve", "--answers", answers)
        assert self._engine(warm) == []
        assert "sweep_jobs_total" not in warm  # nothing dispatched

        stored = self._families(capsys, "fig10")
        assert self._engine(stored) == []
        assert self._jobs(stored, "cache_hit") == 2

    def test_fig10_cold_then_rerun_from_the_store(self, capsys):
        cold = self._families(capsys, "fig10")
        assert "engine_profile_samples_total" in cold
        assert self._jobs(cold, "completed") == 2

        rerun = self._families(capsys, "fig10")
        assert self._engine(rerun) == []
        assert self._jobs(rerun, "cache_hit") == 2
        assert self._jobs(rerun, "completed") == 0


class TestBenchHistoryCommand:
    def _report(self, tmp_path, factor=1.0):
        import json

        report = {
            "scales": {"num_sms": 4, "num_l2_slices": 2},
            "num_bits": 6,
            "workloads": {
                "tpc_channel": {
                    "naive_cycles_per_s": 1000.0 * factor,
                    "active_cycles_per_s": 4000.0 * factor,
                    "identical": True,
                },
            },
        }
        path = tmp_path / f"report_{factor}.json"
        path.write_text(json.dumps(report))
        return report, str(path)

    def test_from_report_regression_exits_three(self, tmp_path, capsys):
        from repro.metrics import append_history, bench_record

        history = tmp_path / "hist.jsonl"
        baseline, _ = self._report(tmp_path)
        for ts in (1.0, 2.0, 3.0):
            append_history(bench_record(baseline, timestamp=ts), history)

        _, bad_path = self._report(tmp_path, factor=0.5)
        assert main(
            ["bench", "--from-report", bad_path, "--check-history",
             "--history-file", str(history)]
        ) == 3
        assert "REGRESSION" in capsys.readouterr().out

        _, good_path = self._report(tmp_path, factor=1.05)
        assert main(
            ["bench", "--from-report", good_path, "--check-history",
             "--history-file", str(history)]
        ) == 0

    def test_from_report_without_baseline_is_ok(self, tmp_path, capsys):
        _, path = self._report(tmp_path)
        assert main(
            ["bench", "--from-report", path, "--check-history",
             "--history-file", str(tmp_path / "empty.jsonl")]
        ) == 0
        assert "skipped" in capsys.readouterr().out.lower()


class TestBenchReport:
    """``bench`` report shape, timed on instant fake workloads."""

    @pytest.fixture(autouse=True)
    def _fake_workloads(self, monkeypatch):
        from repro.runner import bench

        self.runs = []

        def fake(config, num_bits):
            self.runs.append(config)
            return 100, ("received", num_bits)

        monkeypatch.setattr(bench, "_tpc_channel", fake)
        monkeypatch.setattr(
            bench, "_WORKLOADS", {"tpc_channel": fake, "fig9_sync": fake}
        )
        monkeypatch.setattr(bench, "_bench_supervision", lambda *_: {})

    def test_volta_report_has_no_separate_full_volta_run(self, capsys):
        from repro.config import VOLTA_V100
        from repro.runner import bench_engine

        report = bench_engine(VOLTA_V100, num_bits=2, output=None)
        assert "full_volta" not in report
        # Two strategies per workload, then one shared off leg and one
        # leg per observability plane.
        assert len(self.runs) == 2 * 2 + 3
        assert main(["bench", "--no-output", "--no-history"]) == 0
        assert "active @ full Volta:" in capsys.readouterr().out

    def test_smaller_scale_pins_a_full_volta_run(self):
        from repro.config import VOLTA_V100, small_config
        from repro.runner import bench_engine

        report = bench_engine(small_config(), num_bits=2, output=None)
        assert report["full_volta"]["num_sms"] == VOLTA_V100.num_sms
        assert VOLTA_V100 in self.runs

    def test_planes_share_one_off_leg(self):
        from repro.config import small_config
        from repro.runner import bench_engine

        report = bench_engine(small_config(), num_bits=2, output=None)
        telemetry, metrics = report["telemetry"], report["metrics"]
        assert telemetry["disabled_wall_s"] == metrics["disabled_wall_s"]
        assert telemetry["identical"] and metrics["identical"]
        assert sum(c.telemetry_enabled for c in self.runs) == 1
        assert sum(c.metrics_enabled for c in self.runs) == 1

    def test_perturbing_plane_fails_the_identity_assert(self, monkeypatch):
        from repro.config import small_config
        from repro.runner import bench

        def perturbed(config, num_bits):
            return 100, ("received", config.metrics_enabled)

        monkeypatch.setattr(bench, "_tpc_channel", perturbed)
        with pytest.raises(AssertionError, match="metrics-enabled run"):
            bench.bench_engine(small_config(), num_bits=2, output=None)


class TestServeCommand:
    """``serve`` end to end, with jobs run in-process on the shards."""

    GRID = ["--iterations", "1", "2", "--bits", "2"]

    @pytest.fixture(autouse=True)
    def _isolated_dirs(self, tmp_path, monkeypatch, inline_service):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path

    def _serve(self, *argv, name="answers.json"):
        path = self.tmp_path / name
        code = main(["serve", *self.GRID, "--answers", str(path), *argv])
        manifest = json.loads(path.read_text()) if path.exists() else None
        return code, manifest

    def test_answers_manifest(self, capsys):
        code, manifest = self._serve()
        assert code == 0
        assert [a["query"]["iterations"] for a in manifest["answers"]] == [
            1.0, 2.0]
        assert all(a["source"] == "exact" for a in manifest["answers"])
        assert all("confidence" not in a for a in manifest["answers"])
        service = manifest["service"]
        assert "execution" not in service
        assert service["dispatched"] == service["completed"] == 2
        assert service["shards"] == 2
        assert manifest["failures"] == []
        table = capsys.readouterr().out
        assert "source" in table and "confidence" not in table

    def test_warm_run_answers_from_the_store(self):
        _, cold = self._serve(name="cold.json")
        code, warm = self._serve(name="warm.json")
        assert code == 0
        assert warm["service"]["dispatched"] == 0
        assert warm["service"]["cache_hit"] == 2
        assert warm["answers"] == cold["answers"]

    def test_fig10_and_serve_share_store_entries(self, capsys):
        assert main(["fig10", *self.GRID]) == 0
        code, manifest = self._serve()
        assert code == 0
        assert manifest["service"]["dispatched"] == 0
        assert manifest["service"]["cache_hit"] == len(manifest["grid"])

    def test_metrics_manifest_adds_service_and_store_counters(self):
        path = self.tmp_path / "metrics.json"
        code, _ = self._serve("--metrics", str(path))
        assert code == 0
        families = json.loads(path.read_text())["metrics"]

        def value(name, **labels):
            (series,) = [s for s in families[name]["series"]
                         if s["labels"] == labels]
            return series["value"]

        assert value("service_jobs_total", state="dispatched") == 2
        assert value("cache_ops_total", op="put") == 2
        assert "engine_profile_samples_total" in families

    def test_queries_file(self):
        queries = self.tmp_path / "queries.json"
        queries.write_text(json.dumps([1.5, {"iterations": 9}]))
        code, manifest = self._serve("--queries", str(queries))
        assert code == 0
        sources = [a["source"] for a in manifest["answers"]]
        assert sources == ["interpolated", "nearest"]

    @pytest.mark.parametrize(
        "entries, named",
        [
            ('["3"]', '"3"'),
            ('[{"bits": 2}]', '{"bits": 2}'),
            ("[true]", "true"),
            ('[1, {"iterations": "2"}]', '{"iterations": "2"}'),
            ('{"iterations": 1}', "JSON list"),
            ("[1,", "--queries"),
            ("[1, NaN]", "NaN"),
            ("[Infinity]", "Infinity"),
            ('[{"iterations": -Infinity}]', '{"iterations": -Infinity}'),
        ],
        ids=["string", "no-iterations", "bool", "string-iterations",
             "not-a-list", "bad-json", "nan", "infinity",
             "negative-infinity-iterations"],
    )
    def test_malformed_queries_exit_before_sweeping(
        self, capsys, monkeypatch, entries, named
    ):
        from repro.runner import service

        ran = []
        monkeypatch.setattr(
            service, "run_supervised", lambda jobs, **_: ran.extend(jobs)
        )
        queries = self.tmp_path / "queries.json"
        queries.write_text(entries)
        code, manifest = self._serve("--queries", str(queries))
        assert code == 2
        assert manifest is None
        assert ran == []
        assert named in capsys.readouterr().err

    def test_failure_reports_its_grid_slot(self, capsys, monkeypatch):
        from repro.runner import JobFailure, service

        run = service.run_supervised

        def fail_second_point(jobs, **kwargs):
            (job,) = jobs
            if job.params["iteration_count"] != 2:
                return run(jobs, **kwargs)
            # The supervisor numbers the one job it was given as job 0.
            failure = JobFailure(0, job.fn, job.key(None), "exception",
                                 "injected", 1)
            return SimpleNamespace(results=[failure], metrics={})

        monkeypatch.setattr(service, "run_supervised", fail_second_point)
        code, manifest = self._serve()
        assert code == 1
        assert [f["index"] for f in manifest["failures"]] == [1]
        assert len(manifest["answers"]) == 2
        assert "FAILED JobFailure(job 1," in capsys.readouterr().err
