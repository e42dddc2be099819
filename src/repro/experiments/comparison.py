"""Head-to-head comparison of isolation approaches (Figure 8, Section 6.1.4).

Runs the same primary workload and the same "high" CPU bully under every
isolation mechanism and reports the three panels of Figure 8: the 99th
percentile query latency, the idle CPU fraction, and the secondary's absolute
progress — plus the relative-progress numbers quoted in the text
(progress as a percentage of the unrestricted run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config.schema import ExperimentSpec
from . import scenarios
from .single_machine import SingleMachineResult

__all__ = ["ComparisonRow", "ComparisonResult", "IsolationComparison"]


@dataclass(frozen=True)
class ComparisonRow:
    """One bar group of Figure 8."""

    approach: str
    p99_ms: float
    p50_ms: float
    idle_cpu_pct: float
    secondary_progress: float
    secondary_cpu_pct: float
    drop_rate_pct: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "p99_ms": self.p99_ms,
            "p50_ms": self.p50_ms,
            "idle_cpu_pct": self.idle_cpu_pct,
            "secondary_progress": self.secondary_progress,
            "secondary_cpu_pct": self.secondary_cpu_pct,
            "drop_rate_pct": self.drop_rate_pct,
        }


@dataclass
class ComparisonResult:
    """All approaches at one load level."""

    qps: float
    rows: List[ComparisonRow] = field(default_factory=list)

    def row(self, approach: str) -> ComparisonRow:
        for row in self.rows:
            if row.approach == approach:
                return row
        raise KeyError(f"no approach named {approach!r}")

    def relative_progress(self) -> Dict[str, float]:
        """Secondary progress as a fraction of the unrestricted (no isolation) run."""
        baseline = self.row("no_isolation").secondary_progress
        if baseline <= 0:
            return {row.approach: 0.0 for row in self.rows}
        return {row.approach: row.secondary_progress / baseline for row in self.rows}

    def as_table(self) -> List[Dict[str, float]]:
        relative = self.relative_progress()
        table = []
        for row in self.rows:
            entry: Dict[str, float] = {"approach": row.approach}
            entry.update(row.as_dict())
            entry["relative_progress_pct"] = relative[row.approach] * 100.0
            table.append(entry)
        return table


class IsolationComparison:
    """Runs standalone / no-isolation / blind / static-cores / cpu-cycles."""

    APPROACHES = ("standalone", "no_isolation", "blind_isolation", "cpu_cores", "cpu_cycles")

    #: Each colocated approach is one ``policy-showdown`` variant.
    _SHOWDOWN_POLICY = {
        "no_isolation": "none",
        "blind_isolation": "blind",
        "cpu_cores": "static_cores",
        "cpu_cycles": "cpu_cycles",
    }

    def __init__(
        self,
        qps: float = scenarios.AVERAGE_LOAD_QPS,
        duration: float = 5.0,
        warmup: float = 1.0,
        seed: int = 1,
        bully_threads: int = scenarios.HIGH_BULLY_THREADS,
        runner=None,
    ) -> None:
        self._runner = runner
        self._qps = qps
        self._duration = duration
        self._warmup = warmup
        self._seed = seed
        self._bully_threads = bully_threads
        self.results: Dict[str, SingleMachineResult] = {}

    def _spec_for(self, approach: str) -> ExperimentSpec:
        common = dict(
            qps=self._qps, duration=self._duration, warmup=self._warmup, seed=self._seed
        )
        if approach == "standalone":
            return scenarios.standalone(**common)
        return scenarios.policy_showdown(
            self._SHOWDOWN_POLICY[approach], self._bully_threads, **common
        )

    def run(self, approaches: Optional[List[str]] = None) -> ComparisonResult:
        """Run the selected approaches (all of Figure 8 by default).

        All approaches are submitted as one batch to the experiment runner, so
        they execute across worker processes and cached runs are reused.
        """
        from ..runtime.runner import ExperimentTask, default_runner

        runner = self._runner if self._runner is not None else default_runner()
        selected = list(approaches) if approaches is not None else list(self.APPROACHES)
        result = ComparisonResult(qps=self._qps)
        tasks = [
            ExperimentTask(self._spec_for(approach), scenario=approach)
            for approach in selected
        ]
        outcomes = runner.run_batch(tasks)
        for approach, outcome in zip(selected, outcomes):
            run = outcome.result
            self.results[approach] = run
            summary = run.summary()
            result.rows.append(
                ComparisonRow(
                    approach=approach,
                    p99_ms=summary["p99_ms"],
                    p50_ms=summary["p50_ms"],
                    idle_cpu_pct=summary["idle_cpu_pct"],
                    secondary_progress=run.secondary_progress,
                    secondary_cpu_pct=summary["secondary_cpu_pct"],
                    drop_rate_pct=summary["drop_rate_pct"],
                )
            )
        return result
