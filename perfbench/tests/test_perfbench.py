"""Tests of the benchmark itself, in its reduced-size smoke mode.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, seed: int = 0, **kw) -> dict:
    return result_of(run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--smoke", **kw))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_per_layer_counts(workload):
    first = smoke(workload, trace=1, seed=3)
    second = smoke(workload, trace=1, seed=3)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == set(expected)
    assert first["correct"] and second["correct"]
    exact = {name for name, unit in expected.items() if unit != "s"}
    exact.discard("trace.overhead_frac")
    for name in sorted(exact):
        assert first["metrics"][name] == second["metrics"][name], name
    ticks = first["metrics"]["sim.engine.ticks"]["value"]
    if workload == "serve_sweep":
        assert ticks == 0
        assert first["metrics"]["runner.service.jobs"]["value"] > 0
    else:
        assert ticks > 0
    link_ticks = first["metrics"]["interconnect.link.ticks"]["value"]
    assert (link_ticks > 0) == (workload == "link_ring")


def test_run_writes_nothing_outside_its_own_directory(tmp_path):
    watched = [ROOT / "BENCH_history.jsonl", ROOT / "BENCH_engine.json"]
    before = {p: p.read_bytes() if p.exists() else None for p in watched}
    runs_before = set((ROOT / ".perfbench_out").glob("run-*"))
    done = run_bench("--workload", "serve_sweep", "--seconds", "0",
                     "--smoke", cwd=tmp_path)
    assert result_of(done)["correct"] is True
    assert list(tmp_path.iterdir()) == []
    assert {p: p.read_bytes() if p.exists() else None
            for p in watched} == before
    assert set((ROOT / ".perfbench_out").glob("run-*")) <= runs_before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seconds", "1",
                     cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
