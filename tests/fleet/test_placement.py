"""Unit tests for the secondary placement scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placement_reference import reference_plan_placement

from repro.config.loader import from_dict
from repro.config.schema import PlacementSpec
from repro.errors import ConfigError
from repro.fleet.placement import (
    MachineCapacity,
    PlacementDemand,
    PlacementPlan,
    plan_placement,
)

STRATEGIES = ("first_fit", "best_fit", "worst_fit")


def machines(*cores):
    return [MachineCapacity(f"m{i:03d}", c) for i, c in enumerate(cores)]

def demands(*cores):
    return [PlacementDemand(f"j{i:03d}", c) for i, c in enumerate(cores)]


class TestFirstFit:
    def test_packs_in_machine_order(self):
        plan = plan_placement(machines(8, 8), demands(4, 4, 4))
        by_machine = plan.placed_cores_by_machine()
        assert by_machine == {"m000": 8, "m001": 4}
        assert not plan.unplaced

    def test_larger_jobs_place_first(self):
        # The 6-core job would be blocked if the 2-core jobs went first.
        plan = plan_placement(machines(8), demands(2, 2, 6))
        assert plan.total_placed_cores == 8
        assert [a.job for a in plan.assignments] == ["j002", "j000"]
        assert [d.name for d in plan.unplaced] == ["j001"]

    def test_overflow_goes_unplaced_not_overcommitted(self):
        plan = plan_placement(machines(4, 4), demands(3, 3, 3))
        assert plan.total_placed_cores == 6
        assert len(plan.unplaced) == 1
        for machine, cores in plan.placed_cores_by_machine().items():
            assert cores <= 4

    def test_zero_capacity_machines_host_nothing(self):
        plan = plan_placement(machines(0, 5), demands(5))
        assert plan.placed_cores_by_machine() == {"m001": 5}


class TestStrategies:
    def test_best_fit_prefers_tightest_machine(self):
        plan = plan_placement(machines(10, 4), demands(3), strategy="best_fit")
        assert plan.placed_cores_by_machine() == {"m001": 3}

    def test_worst_fit_prefers_emptiest_machine(self):
        plan = plan_placement(machines(10, 4), demands(3), strategy="worst_fit")
        assert plan.placed_cores_by_machine() == {"m000": 3}

    def test_ties_break_on_canonical_machine_order(self):
        for strategy in ("first_fit", "best_fit", "worst_fit"):
            plan = plan_placement(machines(6, 6), demands(2), strategy=strategy)
            assert plan.placed_cores_by_machine() == {"m000": 2}, strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            plan_placement(machines(4), demands(2), strategy="magic")


class TestDeterminism:
    def test_permutation_of_inputs_yields_identical_plan(self):
        ms = machines(5, 9, 2, 7)
        js = demands(4, 1, 6, 3, 2)
        baseline = plan_placement(ms, js)
        shuffled = plan_placement(list(reversed(ms)), list(reversed(js)))
        assert shuffled == baseline

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            plan_placement([MachineCapacity("m", 4), MachineCapacity("m", 4)], demands(1))
        with pytest.raises(ConfigError, match="unique"):
            plan_placement(machines(4), [PlacementDemand("j", 1), PlacementDemand("j", 2)])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            MachineCapacity("m0", -1)
        with pytest.raises(ConfigError):
            PlacementDemand("j0", 0)
        with pytest.raises(ConfigError):
            MachineCapacity("", 1)
        with pytest.raises(ConfigError):
            PlacementDemand("", 1)


class TestReferenceOracle:
    """The linear first fit (and the scans) against the original scheduler."""

    @settings(max_examples=300)
    @given(
        capacities=st.lists(
            st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from([0.0, 12.0, 31.0])),
            max_size=12,
        ),
        sizes=st.lists(
            st.one_of(st.sampled_from([2, 6, 6, 6.0, 8]), st.integers(min_value=1, max_value=48)),
            max_size=40,
        ),
        strategy=st.sampled_from(STRATEGIES),
        data=st.data(),
    )
    def test_plan_equals_the_reference(self, capacities, sizes, strategy, data):
        ms, js = machines(*capacities), demands(*sizes)
        expected = reference_plan_placement(ms, js, strategy)
        shuffled_ms = data.draw(st.permutations(ms))
        shuffled_js = data.draw(st.permutations(js))
        assert plan_placement(shuffled_ms, shuffled_js, strategy) == expected

    def test_empty_inputs(self):
        for strategy in STRATEGIES:
            assert plan_placement([], demands(3), strategy) == reference_plan_placement(
                [], demands(3), strategy
            )
            assert plan_placement(machines(4), [], strategy) == PlacementPlan((), ())

    def test_integral_float_sizes_pack_like_ints(self):
        # A JSON config can carry sizes as floats; whole values still pack.
        spec = from_dict(PlacementSpec, {"job_cores": [6.0, 4.0, 6]})
        js = demands(*spec.job_cores)
        for strategy in STRATEGIES:
            plan = plan_placement(machines(16.0, 5), js, strategy)
            assert plan == reference_plan_placement(machines(16.0, 5), js, strategy)
            assert plan.total_placed_cores == 16

    def test_fractional_cores_are_rejected(self):
        with pytest.raises(ConfigError, match="whole cores"):
            PlacementDemand("j", 1.5)
        with pytest.raises(ConfigError, match="whole cores"):
            MachineCapacity("m", 2.5)
        with pytest.raises(ConfigError, match="whole cores"):
            from_dict(PlacementSpec, {"job_cores": [6.0, 4.5]})
        with pytest.raises(ConfigError, match="whole number"):
            PlacementSpec(job_cores_each=6.5)

    @pytest.mark.slow
    @pytest.mark.parametrize("fleet_machines", [1_000, 7_072, 50_000])
    def test_real_stage_shapes(self, fleet_machines):
        # The hyperscale rollout's stages: 185,500 six-core batch jobs on the
        # enabled machines, each with 31 or 35 reclaimable cores.
        ms = [
            MachineCapacity(f"m{i:05d}", 35 if i % 3 == 0 else 31)
            for i in range(fleet_machines)
        ]
        js = [PlacementDemand(f"batch-{i:06d}", 6) for i in range(185_500)]
        plan = plan_placement(ms, js)
        assert plan == reference_plan_placement(ms, js)
        assert plan.placed_jobs + len(plan.unplaced) == len(js)


class TestGarbageCollection:
    def test_caller_gc_setting_is_restored(self):
        import gc

        was_enabled = gc.isenabled()
        duplicated = [PlacementDemand("j", 1), PlacementDemand("j", 2)]
        try:
            for enabled in (True, False):
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                plan_placement(machines(8), demands(4))
                assert gc.isenabled() is enabled
                with pytest.raises(ConfigError):
                    plan_placement(machines(8), duplicated)
                assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()
