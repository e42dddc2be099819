"""The benchmark's workloads: set-up, timed pass, output digest and checks.

Each workload is a closed loop of one: ``run.py`` starts the next
repetition only when the previous one has finished.  A repetition is a
set-up (timed as set-up) followed by a timed pass over a fixed input size, so
every repetition of a run does the same work and the run reports medians.

The simulated IndexServe client inside each single-machine experiment stays
open-loop at the scenario's QPS; only the host-side loop is closed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.experiments import scenarios, single_machine
from repro.experiments.comparison import IsolationComparison
from repro.experiments.single_machine import SingleMachineExperiment
from repro.fleet.model import FleetModel
from repro.fleet.scenarios import fleet_hyperscale
from repro.fleet.simulate import FleetSimulation
from repro.runtime.cache import ResultCache
from repro.runtime.runner import ExperimentRunner

#: Input sizes: the benchmark's own, and the smoke test's.
SIZES = ("full", "tiny")
#: Simulated seconds per experiment (measured window, warm-up) at full size
#: and at the smoke test's tiny size.
FIG8_SIZE = {"full": (1.0, 0.2), "tiny": (0.2, 0.1)}
DISK_SIZE = {"full": (2.0, 0.2), "tiny": (0.3, 0.1)}
#: Machines in the sampled fleet rollout; the tiny fleet also calibrates
#: with shorter experiments (simulated seconds: measured window, warm-up).
FLEET_MACHINES = {"full": 50_000, "tiny": 2_000}
TINY_CALIBRATION = (0.3, 0.1)


def digest(outputs: Any) -> str:
    """SHA-256 of the canonical JSON of a workload's simulated outputs.

    ``repr`` keeps every float digit, so any drift in the model shows.
    """
    text = json.dumps(outputs, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _clear_trace_memo() -> None:
    """Forget query traces generated by an earlier repetition.

    ``single_machine`` memoises generated traces per process.  A repetition
    must cost what a fresh process pays, so the memo is emptied before each
    one (within a repetition, the Fig. 8 scenarios still share one trace, as
    they do in a fresh process).
    """
    memo = getattr(single_machine, "_TRACE_MEMO", None)
    if memo is not None:
        memo.clear()


def _machine_outputs(result) -> Dict[str, Any]:
    """The simulated outputs of one single-machine run that the digest pins."""
    return {
        "summary": result.summary(),
        "queries": [
            result.queries_submitted,
            result.queries_completed,
            result.queries_dropped,
        ],
        "secondary_cpu_seconds": result.secondary_cpu_seconds,
        "controller": [result.controller_polls, result.controller_updates],
    }


def machine_problems(label: str, result) -> List[str]:
    """Invariants every single-machine result must hold."""
    problems = []
    summary = result.summary()
    if result.queries_completed <= 0:
        problems.append(f"{label}: no completed queries")
    if result.queries_completed + result.queries_dropped > result.queries_submitted:
        problems.append(f"{label}: more queries answered than submitted")
    if not 0.0 < summary["p50_ms"] <= summary["p99_ms"]:
        problems.append(f"{label}: latency percentiles out of order")
    return problems


@dataclass
class Timed:
    """What a timed pass produced."""

    #: Units of work completed: DES events, or fleet machine-buckets.
    events: int
    #: Simulated outputs, JSON-encodable; the digest covers all of them.
    outputs: Dict[str, Any]
    #: Output-check failures found while running (empty when correct).
    problems: List[str]
    #: The simulated end-to-end metrics.
    sim: Dict[str, float]


class Fig8Direct:
    """The five Fig. 8 approaches, serially, straight on SingleMachineExperiment."""

    name = "fig8-direct"
    runs_des = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.duration, self.warmup = FIG8_SIZE[size]

    def input_size(self) -> Dict[str, Any]:
        return {
            "approaches": list(IsolationComparison.APPROACHES),
            "qps": scenarios.AVERAGE_LOAD_QPS,
            "sim_duration_s": self.duration,
            "sim_warmup_s": self.warmup,
        }

    def setup(self) -> List[Tuple[str, SingleMachineExperiment]]:
        _clear_trace_memo()
        comparison = IsolationComparison(
            duration=self.duration, warmup=self.warmup, seed=self.seed
        )
        # _spec_for is the approach -> spec mapping Fig. 8 itself runs; the
        # benchmark runs those specs without the runner or its cache.
        return [
            (approach, SingleMachineExperiment(comparison._spec_for(approach), approach))
            for approach in comparison.APPROACHES
        ]

    def timed(self, state: List[Tuple[str, SingleMachineExperiment]]) -> Timed:
        results = {}
        events = 0
        for approach, experiment in state:
            results[approach] = experiment.run()
            events += experiment.engine.events_executed
        problems = []
        for approach, result in results.items():
            problems += machine_problems(approach, result)
        p99 = {approach: result.summary()["p99_ms"] for approach, result in results.items()}
        # PerfIso's claim: blind isolation keeps the tail that no isolation loses.
        if not p99["blind_isolation"] < p99["no_isolation"]:
            problems.append("blind isolation did not protect the P99 against no isolation")
        if results["standalone"].secondary_cpu_seconds != 0.0:
            problems.append("standalone ran secondary work")
        blind = results["blind_isolation"]
        return Timed(
            events=events,
            outputs={approach: _machine_outputs(result) for approach, result in results.items()},
            problems=problems,
            sim={
                "primary_p99_ms": p99["blind_isolation"],
                "secondary_cpu_pct": blind.summary()["secondary_cpu_pct"],
                "reclaimed_core_hours": blind.secondary_cpu_seconds / 3600.0,
            },
        )

    def teardown(self, state) -> None:
        pass


class DiskThrottle:
    """Disk bully + HDFS under DWRR I/O throttling on one machine."""

    name = "disk-throttle"
    runs_des = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.duration, self.warmup = DISK_SIZE[size]

    def input_size(self) -> Dict[str, Any]:
        return {
            "scenario": "disk_bound_with_throttling",
            "qps": scenarios.PEAK_LOAD_QPS,
            "sim_duration_s": self.duration,
            "sim_warmup_s": self.warmup,
        }

    def setup(self) -> SingleMachineExperiment:
        _clear_trace_memo()
        spec = scenarios.disk_bound_with_throttling(
            duration=self.duration, warmup=self.warmup, seed=self.seed
        )
        return SingleMachineExperiment(spec, self.name)

    def timed(self, experiment: SingleMachineExperiment) -> Timed:
        result = experiment.run()
        summary = result.summary()
        problems = machine_problems(self.name, result)
        if result.secondary_cpu_seconds <= 0.0:
            problems.append("the disk-bound secondaries made no progress")
        return Timed(
            events=experiment.engine.events_executed,
            outputs=_machine_outputs(result),
            problems=problems,
            sim={
                "primary_p99_ms": summary["p99_ms"],
                "secondary_cpu_pct": summary["secondary_cpu_pct"],
                "reclaimed_core_hours": result.secondary_cpu_seconds / 3600.0,
            },
        )

    def teardown(self, state) -> None:
        pass


def fleet_problems(result, core_hours: float) -> List[str]:
    """Invariants a completed fleet rollout must hold."""
    problems = []
    if result.status != "completed":
        problems.append(f"fleet rollout status {result.status!r}, not 'completed'")
    if result.stages_completed != result.stages_total:
        problems.append("fleet rollout left stages unfinished")
    if result.colocated_digest.count == 0:
        problems.append("no colocated latency samples in the fleet")
    if not 0.0 < result.reclaimed_core_hours <= core_hours:
        problems.append("reclaimed core-hours outside (0, fleet core-hours]")
    return problems


@dataclass
class FleetState:
    directory: Path
    calibration_entries: int


class FleetHyperscale:
    """The sampled 50k-machine rollout, warm from an on-disk calibration cache.

    Set-up calibrates cold into a fresh on-disk cache (DES work spread over
    the runner's workers).  The timed pass rebuilds the spec and reads that
    cache through a fresh ``ResultCache``, as a warm re-run in a new process
    would, so it runs no DES: only spec hashing, cache reads and writes,
    shard fan-out, placement, sampling and merge.
    """

    name = "fleet-hyperscale"
    runs_des = False

    def __init__(self, seed: int, size: str, workers: int, scratch: Path) -> None:
        self.seed = seed
        self.size = size
        self.machines = FLEET_MACHINES[size]
        self.workers = workers
        self.scratch = scratch

    def input_size(self) -> Dict[str, Any]:
        return {"scenario": "fleet_hyperscale", "machines": self.machines, "workers": self.workers}

    def _spec(self):
        spec = fleet_hyperscale(machines=self.machines, seed=self.seed)
        if self.size == "tiny":
            duration, warmup = TINY_CALIBRATION
            spec = dataclasses.replace(
                spec, calibration_duration=duration, calibration_warmup=warmup
            )
        return spec

    def setup(self) -> FleetState:
        _clear_trace_memo()
        directory = Path(tempfile.mkdtemp(prefix="fleet-cache-", dir=self.scratch))
        runner = ExperimentRunner(max_workers=self.workers, cache=ResultCache(directory))
        FleetModel(self._spec()).calibrate(runner)
        return FleetState(directory, sum(1 for _ in directory.glob("*.pkl")))

    def timed(self, state: FleetState) -> Timed:
        spec = self._spec()
        cache = ResultCache(state.directory)
        runner = ExperimentRunner(max_workers=self.workers, cache=cache)
        result = FleetSimulation(spec, runner=runner).run()
        rollout = [stage for stage in result.stages if stage.stage != "bake"]
        fleet_cores = sum(group.machines * group.machine.logical_cores for group in spec.groups)
        core_hours = fleet_cores * sum(stage.buckets for stage in rollout) * spec.bucket_seconds / 3600.0
        reclaimed = result.reclaimed_core_hours
        problems = fleet_problems(result, core_hours)
        if cache.hits != state.calibration_entries:
            problems.append(
                f"timed pass served {cache.hits} cache hits for "
                f"{state.calibration_entries} calibration entries"
            )
        return Timed(
            events=result.machine_buckets,
            outputs={"rows": result.rows(), "summary": result.summary()},
            problems=problems,
            sim={
                "primary_p99_ms": rollout[-1].colocated_p99_ms if rollout else 0.0,
                "secondary_cpu_pct": 100.0 * reclaimed / core_hours if core_hours else 0.0,
                "reclaimed_core_hours": reclaimed,
            },
        )

    def teardown(self, state: FleetState) -> None:
        shutil.rmtree(state.directory, ignore_errors=True)


NAMES = (Fig8Direct.name, DiskThrottle.name, FleetHyperscale.name)


def make(name: str, seed: int, size: str, workers: int, scratch: Path):
    """Build the workload called ``name``."""
    if name == Fig8Direct.name:
        return Fig8Direct(seed, size)
    if name == DiskThrottle.name:
        return DiskThrottle(seed, size)
    if name == FleetHyperscale.name:
        return FleetHyperscale(seed, size, workers, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
