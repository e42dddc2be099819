"""CPU isolation policies and challenger controllers.

PerfIso's CPU policy decides, at every controller poll, how much CPU the
secondary job object may use.  The paper's evaluation matrix (Section 6.1)
is covered by four policies:

* :class:`BlindIsolationPolicy` — the paper's contribution.  Keep ``B`` idle
  cores at all times by growing/shrinking the secondary's core allocation
  based purely on the idle-core count (no SLOs, no model of the primary).
* :class:`StaticCoresPolicy` — restrict the secondary to a fixed core subset.
* :class:`CpuCyclesPolicy` — restrict the secondary to a fixed share of total
  CPU cycles (duty-cycle rate control).
* :class:`NoIsolationPolicy` — the uncontrolled baseline.

To quantify *when* blindness wins or loses, four challenger controllers
implement the same interface against richer telemetry — the controller hands
every policy a :class:`ControllerObservation` and only gathers the telemetry
a policy declares it reads (``uses_latency`` / ``uses_forecast``):

* :class:`PidPolicy` — closed-loop PID on the windowed-P99 SLO error;
* :class:`ModelPredictivePolicy` — sizes the secondary against the arrival
  model's exact forecast peak over the next poll window;
* :class:`UtilizationTargetPolicy` — classic utilisation-target autoscaling;
* :class:`OraclePolicy` — clairvoyant: reads the future arrival trace, an
  upper bound on what any predictor could achieve.

Policies are pure decision functions; applying a decision to the job object
is the controller's job, which keeps the policies trivially unit-testable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Type

from ..config.schema import (
    BlindIsolationSpec,
    CpuCycleSpec,
    MpcControlSpec,
    OracleControlSpec,
    PidControlSpec,
    StaticCoreSpec,
    UtilizationTargetSpec,
)
from ..errors import IsolationError

__all__ = [
    "AllocationDecision",
    "ControllerObservation",
    "CpuIsolationPolicy",
    "BlindIsolationPolicy",
    "StaticCoresPolicy",
    "CpuCyclesPolicy",
    "NoIsolationPolicy",
    "PidPolicy",
    "ModelPredictivePolicy",
    "UtilizationTargetPolicy",
    "OraclePolicy",
    "policy_from_spec",
    "policy_class",
]


@dataclass(frozen=True)
class AllocationDecision:
    """What the secondary job object should be limited to.

    Exactly one of the knobs is meaningful per policy: a core count (affinity
    restriction), a CPU rate fraction, or "unrestricted".
    """

    core_count: Optional[int] = None
    cpu_rate: Optional[float] = None
    unrestricted: bool = False

    def __post_init__(self) -> None:
        set_knobs = sum(
            [self.core_count is not None, self.cpu_rate is not None, self.unrestricted]
        )
        if set_knobs != 1:
            raise IsolationError(
                "an AllocationDecision must set exactly one of core_count, cpu_rate, "
                "unrestricted"
            )
        if self.core_count is not None and self.core_count < 0:
            raise IsolationError("core_count must be >= 0")
        if self.cpu_rate is not None and not 0.0 < self.cpu_rate <= 1.0:
            raise IsolationError("cpu_rate must be in (0, 1]")


@dataclass(frozen=True)
class ControllerObservation:
    """Everything a dynamic controller may observe at one poll.

    The controller populates ``windowed_p99`` and ``forecast_peak_qps`` only
    for policies that declare the matching capability flag; they are ``None``
    otherwise (and also when the telemetry source has no data yet — an empty
    latency window, or no arrival model attached).
    """

    now: float
    total_cores: int
    idle_cores: int
    current_core_count: Optional[int]
    poll_interval: float
    #: P99 of served latencies over the policy's sliding window (seconds).
    windowed_p99: Optional[float] = None
    #: Exact peak offered QPS over the policy's forecast horizon.
    forecast_peak_qps: Optional[float] = None

    @property
    def utilization(self) -> float:
        """Busy fraction of the machine's logical cores."""
        return 1.0 - self.idle_cores / self.total_cores


class CpuIsolationPolicy(abc.ABC):
    """Interface of a dynamic CPU controller.

    Legacy policies implement :meth:`poll_decision` over the idle-core count
    alone; the base :meth:`decide` adapts them to the observation-driven
    interface.  Richer controllers override :meth:`decide` directly and set
    the capability flags so the controller only gathers telemetry that is
    actually read.
    """

    name = "abstract"
    #: Whether :meth:`decide` reads ``observation.windowed_p99``.
    uses_latency = False
    #: Whether :meth:`decide` reads ``observation.forecast_peak_qps``.
    uses_forecast = False

    @abc.abstractmethod
    def initial_decision(self, total_cores: int) -> AllocationDecision:
        """Allocation to apply when the controller starts."""

    @abc.abstractmethod
    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        """Allocation to apply after observing ``idle_cores``; ``None`` = no change."""

    def decide(self, observation: ControllerObservation) -> Optional[AllocationDecision]:
        """Allocation for this poll's observation; ``None`` = no change."""
        return self.poll_decision(
            observation.total_cores,
            observation.idle_cores,
            observation.current_core_count,
        )

    def forecast_horizon(self, poll_interval: float) -> float:
        """How far ahead (seconds) the forecast in the observation should look."""
        return poll_interval


class _ObservationPolicy(CpuIsolationPolicy):
    """Base for controllers written against :class:`ControllerObservation`.

    Subclasses override :meth:`decide`; the legacy :meth:`poll_decision`
    entry point is adapted by wrapping its arguments into a bare observation
    (no latency window, no forecast — the policy must degrade gracefully).
    """

    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        return self.decide(
            ControllerObservation(
                now=0.0,
                total_cores=total_cores,
                idle_cores=idle_cores,
                current_core_count=current_core_count,
                poll_interval=0.0,
            )
        )


class BlindIsolationPolicy(CpuIsolationPolicy):
    """CPU blind isolation (Section 3.1).

    Let ``I`` be the observed number of idle cores and ``B`` the configured
    buffer.  If ``I < B`` the secondary's core count ``S`` is decreased by the
    shortfall; if ``I > B`` it is increased by the surplus.  ``S`` is clamped
    to ``[min_secondary_cores, total - B]``.
    """

    name = "blind"

    def __init__(self, spec: BlindIsolationSpec) -> None:
        self._spec = spec

    @property
    def buffer_cores(self) -> int:
        return self._spec.buffer_cores

    def max_secondary(self, total_cores: int) -> int:
        return max(self._spec.min_secondary_cores, total_cores - self._spec.buffer_cores)

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        if self._spec.buffer_cores >= total_cores:
            raise IsolationError(
                f"buffer ({self._spec.buffer_cores}) must be smaller than the machine "
                f"({total_cores} cores)"
            )
        return AllocationDecision(core_count=self.max_secondary(total_cores))

    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        if current_core_count is None:
            current_core_count = self.max_secondary(total_cores)
        buffer_cores = self._spec.buffer_cores
        delta = idle_cores - buffer_cores
        if delta == 0:
            return None
        if self._spec.max_step:
            delta = max(-self._spec.max_step, min(self._spec.max_step, delta))
        target = current_core_count + delta
        target = max(self._spec.min_secondary_cores, min(self.max_secondary(total_cores), target))
        if target == current_core_count:
            return None
        return AllocationDecision(core_count=target)


class StaticCoresPolicy(CpuIsolationPolicy):
    """Fixed core-subset restriction (the 'CPU cores' alternative)."""

    name = "static_cores"

    def __init__(self, spec: StaticCoreSpec) -> None:
        self._spec = spec

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        count = min(self._spec.secondary_cores, total_cores)
        return AllocationDecision(core_count=count)

    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        return None


class CpuCyclesPolicy(CpuIsolationPolicy):
    """Fixed CPU duty-cycle restriction (the 'CPU cycles' alternative)."""

    name = "cpu_cycles"

    def __init__(self, spec: CpuCycleSpec) -> None:
        self._spec = spec

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(cpu_rate=self._spec.cpu_fraction)

    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        return None


class NoIsolationPolicy(CpuIsolationPolicy):
    """The uncontrolled baseline: the secondary competes freely."""

    name = "none"

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(unrestricted=True)

    def poll_decision(
        self, total_cores: int, idle_cores: int, current_core_count: Optional[int]
    ) -> Optional[AllocationDecision]:
        return None


class PidPolicy(_ObservationPolicy):
    """PID controller on the relative windowed-P99 SLO error.

    Positive error (P99 under the SLO) grows the secondary, negative error
    (SLO breach) shrinks it; the integral term removes steady-state offset
    and is clamped for anti-windup.  With no latency signal yet (empty
    window, or driven through the legacy entry point) the allocation holds.
    """

    name = "pid"
    uses_latency = True

    def __init__(self, spec: PidControlSpec) -> None:
        self._spec = spec
        self._integral = 0.0
        self._previous_error: Optional[float] = None

    def max_secondary(self, total_cores: int) -> int:
        return max(self._spec.min_secondary_cores, total_cores - self._spec.reserve_cores)

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(core_count=self.max_secondary(total_cores))

    def decide(self, observation: ControllerObservation) -> Optional[AllocationDecision]:
        p99 = observation.windowed_p99
        if p99 is None:
            return None
        spec = self._spec
        current = observation.current_core_count
        if current is None:
            current = self.max_secondary(observation.total_cores)
        error = (spec.slo_p99 - p99) / spec.slo_p99
        dt = observation.poll_interval
        if dt > 0:
            self._integral += error * dt
            if spec.integral_limit:
                self._integral = max(
                    -spec.integral_limit, min(spec.integral_limit, self._integral)
                )
        derivative = 0.0
        if dt > 0 and self._previous_error is not None:
            derivative = (error - self._previous_error) / dt
        self._previous_error = error
        control = spec.kp * error + spec.ki * self._integral + spec.kd * derivative
        step = int(round(control))
        if spec.max_step:
            step = max(-spec.max_step, min(spec.max_step, step))
        target = current + step
        target = max(
            spec.min_secondary_cores, min(self.max_secondary(observation.total_cores), target)
        )
        if target == current:
            return None
        return AllocationDecision(core_count=target)


def _capacity_target(
    total_cores: int,
    forecast_peak_qps: float,
    qps_per_core: float,
    headroom_cores: int,
    min_secondary_cores: int,
) -> int:
    """Cores left for the secondary after reserving for a QPS forecast."""
    needed = math.ceil(forecast_peak_qps / qps_per_core) + headroom_cores
    ceiling = max(min_secondary_cores, total_cores - headroom_cores)
    return max(min_secondary_cores, min(ceiling, total_cores - needed))


class ModelPredictivePolicy(_ObservationPolicy):
    """Sizes the secondary against the forecast peak over the next window.

    ``needed = ceil(peak / qps_per_core) + headroom`` cores are reserved for
    the primary; the secondary gets the remainder.  Without a forecast
    (no arrival model attached) the allocation holds.
    """

    name = "mpc"
    uses_forecast = True

    def __init__(self, spec: MpcControlSpec) -> None:
        self._spec = spec

    def forecast_horizon(self, poll_interval: float) -> float:
        return self._spec.horizon if self._spec.horizon > 0 else poll_interval

    def max_secondary(self, total_cores: int) -> int:
        return max(self._spec.min_secondary_cores, total_cores - self._spec.headroom_cores)

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(core_count=self.max_secondary(total_cores))

    def decide(self, observation: ControllerObservation) -> Optional[AllocationDecision]:
        peak = observation.forecast_peak_qps
        if peak is None:
            return None
        spec = self._spec
        target = _capacity_target(
            observation.total_cores,
            peak,
            spec.qps_per_core,
            spec.headroom_cores,
            spec.min_secondary_cores,
        )
        if target == observation.current_core_count:
            return None
        return AllocationDecision(core_count=target)


class UtilizationTargetPolicy(_ObservationPolicy):
    """Holds machine utilisation inside a deadband around a target.

    Utilisation above ``target + deadband`` shrinks the secondary by
    ``step_cores``; below ``target - deadband`` grows it.  Inside the
    deadband the allocation holds (no churn).
    """

    name = "utilization"

    def __init__(self, spec: UtilizationTargetSpec) -> None:
        self._spec = spec

    def max_secondary(self, total_cores: int) -> int:
        return max(self._spec.min_secondary_cores, total_cores - self._spec.reserve_cores)

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(core_count=self.max_secondary(total_cores))

    def decide(self, observation: ControllerObservation) -> Optional[AllocationDecision]:
        spec = self._spec
        current = observation.current_core_count
        if current is None:
            current = self.max_secondary(observation.total_cores)
        utilization = observation.utilization
        if utilization > spec.target_utilization + spec.deadband:
            target = current - spec.step_cores
        elif utilization < spec.target_utilization - spec.deadband:
            target = current + spec.step_cores
        else:
            return None
        target = max(
            spec.min_secondary_cores, min(self.max_secondary(observation.total_cores), target)
        )
        if target == current:
            return None
        return AllocationDecision(core_count=target)


class OraclePolicy(_ObservationPolicy):
    """Clairvoyant controller: reads the future arrival trace.

    Identical capacity arithmetic to :class:`ModelPredictivePolicy`, but the
    forecast window is ``lookahead`` seconds of the *actual* future rate
    curve, so the secondary shrinks before a spike lands.  An unrealisable
    upper bound for ranking the realisable controllers against.
    """

    name = "oracle"
    uses_forecast = True

    def __init__(self, spec: OracleControlSpec) -> None:
        self._spec = spec

    def forecast_horizon(self, poll_interval: float) -> float:
        return max(self._spec.lookahead, poll_interval)

    def max_secondary(self, total_cores: int) -> int:
        return max(self._spec.min_secondary_cores, total_cores - self._spec.headroom_cores)

    def initial_decision(self, total_cores: int) -> AllocationDecision:
        return AllocationDecision(core_count=self.max_secondary(total_cores))

    def decide(self, observation: ControllerObservation) -> Optional[AllocationDecision]:
        peak = observation.forecast_peak_qps
        if peak is None:
            return None
        spec = self._spec
        target = _capacity_target(
            observation.total_cores,
            peak,
            spec.qps_per_core,
            spec.headroom_cores,
            spec.min_secondary_cores,
        )
        if target == observation.current_core_count:
            return None
        return AllocationDecision(core_count=target)


_POLICY_CLASSES: Dict[str, Type[CpuIsolationPolicy]] = {
    "blind": BlindIsolationPolicy,
    "static_cores": StaticCoresPolicy,
    "cpu_cycles": CpuCyclesPolicy,
    "none": NoIsolationPolicy,
    "pid": PidPolicy,
    "mpc": ModelPredictivePolicy,
    "utilization": UtilizationTargetPolicy,
    "oracle": OraclePolicy,
}


def policy_class(cpu_policy: str) -> Type[CpuIsolationPolicy]:
    """The policy class named by ``cpu_policy`` (for capability inspection)."""
    try:
        return _POLICY_CLASSES[cpu_policy]
    except KeyError:
        raise IsolationError(f"unknown cpu policy {cpu_policy!r}") from None


def policy_from_spec(spec) -> CpuIsolationPolicy:
    """Build the configured policy from a :class:`~repro.config.schema.PerfIsoSpec`.

    The policy gets the sub-spec :attr:`~repro.config.schema.PerfIsoSpec.policy_spec`
    selects; ``none`` takes none.
    """
    cls = policy_class(spec.cpu_policy)
    sub = spec.policy_spec
    return cls() if sub is None else cls(sub)
