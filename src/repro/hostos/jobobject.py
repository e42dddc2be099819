"""Job objects: the OS-provided control knobs PerfIso manipulates.

The paper places every secondary-tenant process in a unified Windows Job
Object and controls it exclusively through that object (Section 4): a CPU
affinity mask, a CPU rate (duty-cycle) cap, and a memory limit.  Linux cgroups
expose equivalent knobs.  PerfIso never touches the primary's processes.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional

from ..errors import SchedulerError
from .process import OsProcess

__all__ = ["JobObject"]


class JobObject:
    """A named group of processes sharing resource limits."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.processes: List[OsProcess] = []
        # None means "unrestricted" for each knob.
        self._cpu_affinity: Optional[FrozenSet[int]] = None
        self._cpu_rate_fraction: Optional[float] = None
        self._memory_limit_bytes: Optional[int] = None
        # Rate-control runtime state, managed by the scheduler.
        self.rate_budget = 0.0
        self.throttled = False
        #: Number of member threads currently on a core (scheduler-maintained);
        #: used to split the per-interval rate budget across concurrent threads.
        self.running_threads = 0
        #: Observers notified when the affinity or rate limit changes so the
        #: scheduler can react immediately (preempt newly-disallowed cores).
        self._listeners: List[Callable[["JobObject"], None]] = []

    # ------------------------------------------------------------ membership
    def assign(self, process: OsProcess) -> None:
        """Place ``process`` under this job object's limits."""
        if process.job is not None and process.job is not self:
            raise SchedulerError(
                f"process {process.name!r} already belongs to job {process.job.name!r}"
            )
        if process not in self.processes:
            self.processes.append(process)
        process.job = self

    def remove(self, process: OsProcess) -> None:
        if process in self.processes:
            self.processes.remove(process)
        if process.job is self:
            process.job = None

    def live_threads(self):
        """All non-terminated threads of member processes."""
        threads = []
        for process in self.processes:
            threads.extend(process.live_threads())
        return threads

    # ----------------------------------------------------------------- knobs
    @property
    def cpu_affinity(self) -> Optional[FrozenSet[int]]:
        return self._cpu_affinity

    @property
    def cpu_rate_fraction(self) -> Optional[float]:
        return self._cpu_rate_fraction

    def set_cpu_affinity(self, cores: Optional[FrozenSet[int]]) -> None:
        """Restrict member threads to ``cores`` (``None`` removes the limit).

        An empty set is allowed and means "no core at all": the scheduler will
        park every member thread, which is how blind isolation squeezes the
        secondary out entirely when the primary needs the whole machine.
        """
        if cores is not None:
            cores = frozenset(int(c) for c in cores)
        if cores == self._cpu_affinity:
            return
        self._cpu_affinity = cores
        self._notify()

    def set_cpu_rate(self, fraction: Optional[float]) -> None:
        """Cap the job to ``fraction`` of total machine CPU time per interval."""
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise SchedulerError(f"cpu rate fraction must be in (0, 1], got {fraction}")
        if fraction == self._cpu_rate_fraction:
            return
        self._cpu_rate_fraction = fraction
        if fraction is None:
            self.throttled = False
        self._notify()

    def set_memory_limit(self, limit_bytes: Optional[int]) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise SchedulerError("memory limit must be positive or None")
        self._memory_limit_bytes = limit_bytes

    @property
    def memory_usage_bytes(self) -> int:
        return sum(process.memory_bytes for process in self.processes)

    def exceeds_memory_limit(self) -> bool:
        limit = self._memory_limit_bytes
        return limit is not None and self.memory_usage_bytes > limit

    # ------------------------------------------------------------- listeners
    def add_listener(self, callback: Callable[["JobObject"], None]) -> None:
        self._listeners.append(callback)

    def _notify(self) -> None:
        for callback in self._listeners:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        affinity = "all" if self._cpu_affinity is None else len(self._cpu_affinity)
        return (
            f"JobObject({self.name!r}, processes={len(self.processes)}, "
            f"affinity={affinity}, rate={self._cpu_rate_fraction})"
        )
