"""Secondary placement: bin-packing batch demand onto reclaimable capacity.

The fleet does not run one secondary per machine by decree — a batch queue of
jobs is *placed* onto whatever capacity the calibration says each machine can
reclaim without violating its buffer.  The scheduler below is a classic
decreasing-size greedy packer with three machine-selection strategies:

* ``first_fit`` — machines in canonical (name) order, first one that fits;
* ``best_fit``  — the fitting machine with the least remaining capacity;
* ``worst_fit`` — the fitting machine with the most remaining capacity
  (spreads load, the friendliest to tail latency).

Determinism is by construction, not by seeding: inputs are canonically
ordered before packing (demands by decreasing size then name, machines by
name) and all ties break on the canonical order, so any permutation of the
input sequences yields the identical plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from ..config.schema import PlacementSpec
from ..errors import ConfigError
from ..gcpause import gc_suspended

__all__ = [
    "MachineCapacity",
    "PlacementDemand",
    "Assignment",
    "PlacementPlan",
    "plan_placement",
]


@dataclass(frozen=True)
class MachineCapacity:
    """One machine's reclaimable capacity estimate, in whole cores."""

    machine: str
    cores: int

    def __post_init__(self) -> None:
        if not self.machine:
            raise ConfigError("machine name must be non-empty")
        if self.cores < 0:
            raise ConfigError(f"machine {self.machine!r} capacity must be >= 0")
        if self.cores % 1:
            raise ConfigError(f"machine {self.machine!r} capacity must be whole cores")


@dataclass(frozen=True)
class PlacementDemand:
    """One batch job waiting for placement, sized in whole cores."""

    name: str
    cores: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("placement demand name must be non-empty")
        if self.cores < 1:
            raise ConfigError(f"job {self.name!r} must demand at least one core")
        if self.cores % 1:
            raise ConfigError(f"job {self.name!r} must demand whole cores")


@dataclass(frozen=True)
class Assignment:
    """One job pinned to one machine."""

    machine: str
    job: str
    cores: int


@dataclass(frozen=True)
class PlacementPlan:
    """The scheduler's output: assignments in placement order, plus leftovers."""

    assignments: Tuple[Assignment, ...]
    unplaced: Tuple[PlacementDemand, ...]

    @property
    def total_placed_cores(self) -> int:
        return sum(assignment.cores for assignment in self.assignments)

    @property
    def placed_jobs(self) -> int:
        return len(self.assignments)

    def placed_cores_by_machine(self) -> Dict[str, int]:
        placed: Dict[str, int] = {}
        for assignment in self.assignments:
            placed[assignment.machine] = placed.get(assignment.machine, 0) + assignment.cores
        return placed


_NAME = attrgetter("name")
_CORES = attrgetter("cores")
_MACHINE = attrgetter("machine")


def _check_unique(names: List[str], what: str) -> None:
    if len(set(names)) != len(names):
        duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
        raise ConfigError(f"{what} must be unique, duplicated: {duplicates}")


def _canonical_demands(demands: Sequence[PlacementDemand]) -> List[PlacementDemand]:
    _check_unique(list(map(_NAME, demands)), "placement job names")
    # Two stable sorts: decreasing size, equal sizes in name order.
    return sorted(sorted(demands, key=_NAME), key=_CORES, reverse=True)


def _canonical_machines(machines: Sequence[MachineCapacity]) -> List[MachineCapacity]:
    _check_unique(list(map(_MACHINE, machines)), "machine names")
    return sorted(machines, key=_MACHINE)


def _first_fit(
    machines: List[MachineCapacity], demands: List[PlacementDemand]
) -> Tuple[List[Assignment], List[PlacementDemand]]:
    """First fit over canonically ordered inputs, one run of equal sizes at a time.

    Within a run of equal-sized demands the first machine that fits only moves
    forward (capacity only shrinks), so each machine takes as many of the
    run's jobs as it can hold before the scan moves on.  A machine left below
    the smallest demand (the last one: demands come in decreasing size) can
    never host again; ``start`` skips that dead prefix.  The cost is
    O(machines x distinct sizes + jobs).
    """
    names = list(map(_MACHINE, machines))
    remaining = list(map(_CORES, machines))
    smallest = demands[-1].cores if demands else 0
    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    start = 0
    for cores, group in groupby(demands, key=_CORES):
        run = list(group)
        while start < len(remaining) and remaining[start] < smallest:
            start += 1
        # The machine of each job of the run, in job order.
        hosts: List[str] = []
        for position in range(start, len(remaining)):
            fits = min(remaining[position] // cores, len(run) - len(hosts))
            if fits:
                hosts.extend(repeat(names[position], int(fits)))
                remaining[position] -= fits * cores
                if len(hosts) == len(run):
                    break
        assignments.extend(map(Assignment, hosts, map(_NAME, run), map(_CORES, run)))
        unplaced.extend(run[len(hosts) :])
    return assignments, unplaced


def _scored_fit(
    machines: List[MachineCapacity], demands: List[PlacementDemand], strategy: str
) -> Tuple[List[Assignment], List[PlacementDemand]]:
    """Best or worst fit: per demand, scan every machine; ties keep the first."""
    names = list(map(_MACHINE, machines))
    remaining = list(map(_CORES, machines))
    best = strategy == "best_fit"
    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    for demand in demands:
        cores = demand.cores
        chosen = None
        for position, left in enumerate(remaining):
            if left < cores:
                continue
            if chosen is None or (left < remaining[chosen] if best else left > remaining[chosen]):
                chosen = position
        if chosen is None:
            unplaced.append(demand)
            continue
        assignments.append(Assignment(names[chosen], demand.name, cores))
        remaining[chosen] -= cores
    return assignments, unplaced


def plan_placement(
    machines: Sequence[MachineCapacity],
    demands: Sequence[PlacementDemand],
    strategy: str = "first_fit",
) -> PlacementPlan:
    """Pack ``demands`` onto ``machines`` without exceeding any capacity.

    Returns the same plan for any permutation of either input sequence.  A
    job that fits nowhere is reported in ``unplaced`` (the fleet's batch
    queue simply keeps it pending) — placement never overcommits a machine.
    """
    if strategy not in PlacementSpec.VALID_STRATEGIES:
        raise ConfigError(
            f"placement strategy must be one of {PlacementSpec.VALID_STRATEGIES}, "
            f"got {strategy!r}"
        )
    # One Assignment per placed job, all reachable until the plan returns.
    with gc_suspended():
        ordered_demands = _canonical_demands(demands)
        ordered_machines = _canonical_machines(machines)
        if strategy == "first_fit":
            assignments, unplaced = _first_fit(ordered_machines, ordered_demands)
        else:
            assignments, unplaced = _scored_fit(ordered_machines, ordered_demands, strategy)
        return PlacementPlan(assignments=tuple(assignments), unplaced=tuple(unplaced))
