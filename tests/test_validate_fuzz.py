"""Fuzz-harness tests (repro.validate.fuzz) and the ``fuzz`` CLI."""

import random

from repro.cli import main
from repro.config import ARBITRATION_POLICIES
from repro.validate import fuzz, run_case
from repro.validate.fuzz import random_config, random_stimulus


class TestGenerators:
    def test_random_config_is_deterministic_per_seed(self):
        assert random_config(random.Random(7)) == random_config(
            random.Random(7)
        )

    def test_random_config_stays_small_and_valid(self):
        for seed in range(30):
            config = random_config(random.Random(seed))
            assert config.validate_enabled
            assert 1 <= config.num_gpcs <= 2
            assert config.num_sms <= 12
            assert config.arbitration in ARBITRATION_POLICIES

    def test_random_config_varies_packet_geometry(self):
        configs = [random_config(random.Random(seed)) for seed in range(30)]
        assert {c.write_request_flits for c in configs} == {2, 4, 5}
        assert {c.read_reply_flits for c in configs} == {2, 4, 5}

    def test_cases_vary_l2_replacement_and_l1(self):
        configs = [random_config(random.Random(seed)) for seed in range(30)]
        assert {c.l2_replacement for c in configs} == {"lru", "random"}
        summaries = [run_case(seed, oracle=False).summary
                     for seed in range(6)]
        assert any("l1=True" in summary for summary in summaries)
        assert any("l1=False" in summary for summary in summaries)

    def test_random_stimulus_replays_identically(self):
        rng = random.Random(3)
        config = random_config(rng)
        stimulus = random_stimulus(rng, config)
        from repro.gpu.device import GpuDevice

        launched = []
        for _ in range(2):
            device = GpuDevice(config)
            stimulus(device)
            launched.append([
                (k.name, k.num_blocks, k.warps_per_block, dict(k.args))
                for stream in device.scheduler.streams
                for k in ([stream.running] if stream.running else [])
                + stream.pending
            ])
        assert launched[0] == launched[1]


class TestFuzzing:
    def test_seeded_quick_sweep_is_clean(self):
        report = fuzz(runs=3, seed=0)
        assert report.ok
        assert len(report.cases) == 3
        assert all(case.injected > 0 for case in report.cases)
        assert all(case.injected == case.delivered for case in report.cases)

    def test_run_case_is_reproducible(self):
        first = run_case(2, oracle=False)
        second = run_case(2, oracle=False)
        assert first.ok and second.ok
        assert (first.cycles, first.injected, first.delivered) == (
            second.cycles, second.injected, second.delivered
        )

    def test_case_records_config_summary(self):
        case = run_case(1, oracle=False)
        assert "arb=" in case.summary
        # Packet geometry is drawn per case, so a replay needs it.
        config = random_config(random.Random(1))
        assert f"wreq={config.write_request_flits} " in case.summary
        assert f"rrep={config.read_reply_flits} " in case.summary
        assert f"seed={case.seed}" != case.summary  # summary is the config


class TestFuzzCli:
    def test_fuzz_command_reports_success(self, capsys):
        assert main(["fuzz", "--runs", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "2 case(s), 0 failure(s)" in out
        assert "ok   case seed=0" in out

    def test_fuzz_quick_defaults_to_small_budget(self, capsys):
        assert main(["fuzz", "--quick", "--runs", "1", "--no-oracle"]) == 0
        assert "1 case(s)" in capsys.readouterr().out
