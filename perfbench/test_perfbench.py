"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs every workload at its tiny size through the real command, untraced and
traced, and checks the output check, the printed metric names against
``BENCHMARK.json`` and the refusal to run without the simulator sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import perfbench_workloads  # noqa: E402
from run import OutputCheck  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(lines[-2])["perfbench"]
    return result, detail


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", perfbench_workloads.NAMES)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    result, detail = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", trace, "--size", "tiny")
    )
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert detail["error_rate"] == 0.0
    # The committed digest for this seed exists and matched.
    assert detail["expected_digest"] is not None
    assert detail["digest"] == detail["expected_digest"]
    assert set(detail["host"]) >= {"python", "platform", "cpu_model", "nproc",
                                    "host_ref_ops_per_s"}
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    if trace == "0":
        assert all(value > 0 for value in values.values()), values
    elif workload == "fleet-hyperscale":
        assert values["runtime.cache_hits"] > 0 and values["simulation.events"] == 0
    else:
        assert values["simulation.events"] > 0 and values["runtime.cache_hits"] == 0


def test_output_check_counts_digest_mismatches_and_problems():
    def timed(outputs, problems=()):
        return perfbench_workloads.Timed(events=1, outputs=outputs,
                                         problems=list(problems), sim={})

    check = OutputCheck(perfbench_workloads.digest)
    check(timed({"p99_ms": 1.0}), "rep 0")
    check(timed({"p99_ms": 1.0}), "rep 1")
    assert check.failed == 0
    check(timed({"p99_ms": 1.0000000001}), "rep 2")
    check(timed({"p99_ms": 1.0}, ["no completed queries"]), "rep 3")
    assert check.attempted == 4 and check.failed == 2

    # Against a committed digest, a run whose repetitions agree can still fail.
    drifted = OutputCheck(perfbench_workloads.digest,
                          expected=perfbench_workloads.digest({"p99_ms": 1.0}))
    drifted(timed({"p99_ms": 2.0}), "rep 0")
    drifted(timed({"p99_ms": 2.0}), "rep 1")
    assert drifted.attempted == 2 and drifted.failed == 2


def test_digests_are_committed_for_every_workload_size_and_seed():
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    for name in perfbench_workloads.NAMES:
        for size in perfbench_workloads.SIZES:
            assert set(table[name][size]) >= {str(seed) for seed in range(64)}


def test_workload_checks_flag_bad_outputs(tmp_path):
    fig8 = perfbench_workloads.make("fig8-direct", 3, "tiny", 1, tmp_path)
    state = fig8.setup()
    result = state[0][1].run()
    assert perfbench_workloads.machine_problems("ok", result) == []
    starved = dataclasses.replace(result, queries_completed=0)
    assert perfbench_workloads.machine_problems("starved", starved)

    fleet = perfbench_workloads.make("fleet-hyperscale", 3, "tiny", 1, tmp_path)
    fleet_state = fleet.setup()
    try:
        assert fleet.timed(fleet_state).problems == []
    finally:
        fleet.teardown(fleet_state)
    from repro.fleet.accounting import FleetResult

    halted = FleetResult(machines=1, groups=1, status="halted", stages_completed=0,
                         stages_total=1, placement_strategy="first_fit",
                         target_policy="blind")
    assert any("halted" in problem for problem in perfbench_workloads.fleet_problems(halted, 1.0))


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "fig8-direct", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
