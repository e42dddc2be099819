"""Tests for the CPU isolation policies."""

import pytest

from repro.config.schema import (
    BlindIsolationSpec,
    CpuCycleSpec,
    MpcControlSpec,
    OracleControlSpec,
    PerfIsoSpec,
    PidControlSpec,
    StaticCoreSpec,
    UtilizationTargetSpec,
)
from repro.core.policies import (
    _POLICY_CLASSES,
    AllocationDecision,
    BlindIsolationPolicy,
    CpuCyclesPolicy,
    ModelPredictivePolicy,
    NoIsolationPolicy,
    OraclePolicy,
    PidPolicy,
    StaticCoresPolicy,
    UtilizationTargetPolicy,
    policy_class,
    policy_from_spec,
)
from repro.errors import IsolationError


class TestAllocationDecision:
    def test_exactly_one_knob_required(self):
        AllocationDecision(core_count=4)
        AllocationDecision(cpu_rate=0.5)
        AllocationDecision(unrestricted=True)
        with pytest.raises(IsolationError):
            AllocationDecision()
        with pytest.raises(IsolationError):
            AllocationDecision(core_count=4, cpu_rate=0.5)

    def test_value_validation(self):
        with pytest.raises(IsolationError):
            AllocationDecision(core_count=-1)
        with pytest.raises(IsolationError):
            AllocationDecision(cpu_rate=0.0)


class TestBlindIsolationPolicy:
    def test_initial_allocation_leaves_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.initial_decision(48)
        assert decision.core_count == 40

    def test_buffer_must_fit_machine(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        with pytest.raises(IsolationError):
            policy.initial_decision(8)

    def test_shrinks_when_idle_below_buffer(self):
        """The paper's rule: if I < B, S is decreased."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.poll_decision(total_cores=48, idle_cores=3, current_core_count=30)
        assert decision.core_count == 25

    def test_grows_when_idle_above_buffer(self):
        """The paper's rule: if I > B, S is increased."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.poll_decision(total_cores=48, idle_cores=14, current_core_count=20)
        assert decision.core_count == 26

    def test_no_change_at_exact_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        assert policy.poll_decision(48, 8, 30) is None

    def test_never_exceeds_total_minus_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.poll_decision(48, 30, 38)
        assert decision is None or decision.core_count <= 40
        assert policy.poll_decision(48, 48, 40) is None

    def test_never_goes_below_min_secondary(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8, min_secondary_cores=2))
        decision = policy.poll_decision(48, 0, 4)
        assert decision.core_count == 2
        assert policy.poll_decision(48, 0, 2) is None

    def test_max_step_limits_adjustment(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8, max_step=2))
        decision = policy.poll_decision(48, 0, 30)
        assert decision.core_count == 28

    def test_none_current_uses_initial_allocation(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.poll_decision(48, 2, None)
        assert decision.core_count == 34


class TestStaticAndCyclePolicies:
    def test_static_cores_fixed_allocation(self):
        policy = StaticCoresPolicy(StaticCoreSpec(secondary_cores=16))
        assert policy.initial_decision(48).core_count == 16
        assert policy.poll_decision(48, 0, 16) is None

    def test_static_cores_clamped_to_machine(self):
        policy = StaticCoresPolicy(StaticCoreSpec(secondary_cores=64))
        assert policy.initial_decision(48).core_count == 48

    def test_cpu_cycles_sets_rate(self):
        policy = CpuCyclesPolicy(CpuCycleSpec(cpu_fraction=0.05))
        decision = policy.initial_decision(48)
        assert decision.cpu_rate == pytest.approx(0.05)
        assert policy.poll_decision(48, 0, None) is None

    def test_no_isolation_unrestricted(self):
        policy = NoIsolationPolicy()
        assert policy.initial_decision(48).unrestricted
        assert policy.poll_decision(48, 0, None) is None


#: Each policy's class and a non-default sub-spec for the ``PerfIsoSpec``
#: field named after it (``none`` takes no sub-spec).
POLICIES = {
    "blind": (BlindIsolationPolicy, BlindIsolationSpec(buffer_cores=5)),
    "static_cores": (StaticCoresPolicy, StaticCoreSpec(secondary_cores=12)),
    "cpu_cycles": (CpuCyclesPolicy, CpuCycleSpec(cpu_fraction=0.3)),
    "none": (NoIsolationPolicy, None),
    "pid": (PidPolicy, PidControlSpec(kp=2.5)),
    "mpc": (ModelPredictivePolicy, MpcControlSpec(headroom_cores=5)),
    "utilization": (UtilizationTargetPolicy, UtilizationTargetSpec(target_utilization=0.6)),
    "oracle": (OraclePolicy, OracleControlSpec(lookahead=0.5)),
}


class TestBuildPolicy:
    @pytest.mark.parametrize(
        "name,expected",
        [(name, POLICIES[name][0]) for name in PerfIsoSpec.VALID_POLICIES],
    )
    def test_known_policies(self, name, expected):
        sub_spec = POLICIES[name][1]
        fields = {} if sub_spec is None else {name: sub_spec}
        policy = policy_from_spec(PerfIsoSpec(cpu_policy=name, **fields))
        assert type(policy) is expected
        if sub_spec is not None:
            assert policy._spec is sub_spec

    def test_table_covers_every_valid_policy(self):
        assert set(_POLICY_CLASSES) == set(PerfIsoSpec.VALID_POLICIES) == set(POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(IsolationError):
            policy_class("quantum")
