"""Test-only oracle: the original quadratic first-fit placement scheduler.

``reference_plan_placement`` is the scheduler as it was before first fit was
made linear (one demand at a time, dead machines popped from the scan list).
The placement tests check that :func:`repro.fleet.placement.plan_placement`
returns a plan equal to this one for every strategy.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.fleet.placement import (
    Assignment,
    MachineCapacity,
    PlacementDemand,
    PlacementPlan,
)


def reference_plan_placement(
    machines: Sequence[MachineCapacity],
    demands: Sequence[PlacementDemand],
    strategy: str = "first_fit",
) -> PlacementPlan:
    ordered_demands = sorted(demands, key=lambda demand: (-demand.cores, demand.name))
    ordered_machines = sorted(machines, key=lambda machine: machine.machine)

    active: List[List[object]] = [[m.machine, m.cores] for m in ordered_machines]
    suffix_min = [0] * len(ordered_demands)
    smallest = None
    for index in range(len(ordered_demands) - 1, -1, -1):
        cores = ordered_demands[index].cores
        smallest = cores if smallest is None else min(smallest, cores)
        suffix_min[index] = smallest

    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    for index, demand in enumerate(ordered_demands):
        floor = suffix_min[index]
        chosen = None
        if strategy == "first_fit":
            scan = 0
            while scan < len(active):
                name, remaining = active[scan]
                if remaining < floor:
                    active.pop(scan)
                    continue
                if remaining >= demand.cores:
                    chosen = scan
                    break
                scan += 1
        else:
            best_remaining = None
            for position, (name, remaining) in enumerate(active):
                if remaining < demand.cores:
                    continue
                better = (
                    best_remaining is None
                    or (strategy == "best_fit" and remaining < best_remaining)
                    or (strategy == "worst_fit" and remaining > best_remaining)
                )
                if better:
                    best_remaining = remaining
                    chosen = position
        if chosen is None:
            unplaced.append(demand)
            continue
        slot = active[chosen]
        assignments.append(Assignment(machine=slot[0], job=demand.name, cores=demand.cores))
        slot[1] -= demand.cores

    return PlacementPlan(assignments=tuple(assignments), unplaced=tuple(unplaced))
