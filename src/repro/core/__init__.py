"""PerfIso itself: the controller, CPU policies and resource throttles."""

from .controller import PerfIsoController
from .io_throttle import DwrrIoThrottler, ProcessIoState
from .memory_guard import MemoryGuard
from .network_throttle import NetworkThrottle
from .policies import (
    AllocationDecision,
    BlindIsolationPolicy,
    ControllerObservation,
    CpuCyclesPolicy,
    CpuIsolationPolicy,
    ModelPredictivePolicy,
    NoIsolationPolicy,
    OraclePolicy,
    PidPolicy,
    StaticCoresPolicy,
    UtilizationTargetPolicy,
    policy_class,
    policy_from_spec,
)
from ..telemetry.profiling import BufferCoreProfiler, BurstProfile

__all__ = [
    "PerfIsoController",
    "DwrrIoThrottler",
    "ProcessIoState",
    "MemoryGuard",
    "NetworkThrottle",
    "AllocationDecision",
    "BlindIsolationPolicy",
    "ControllerObservation",
    "CpuCyclesPolicy",
    "CpuIsolationPolicy",
    "ModelPredictivePolicy",
    "NoIsolationPolicy",
    "OraclePolicy",
    "PidPolicy",
    "StaticCoresPolicy",
    "UtilizationTargetPolicy",
    "policy_class",
    "policy_from_spec",
    "BufferCoreProfiler",
    "BurstProfile",
]
