"""Smoke tests for the per-figure harnesses on very small workloads.

The benchmark suite runs the figure harnesses at realistic scale; these tests
only verify the plumbing — that every harness produces the expected rows and
columns — so they use tiny durations and loads.
"""

import numpy as np
import pytest

from repro.config.schema import FleetSpec, MachineGroupSpec
from repro.experiments import figures
from repro.cluster.sampled import SampledClusterModel
from repro.fleet.model import (
    QUANTILE_POINTS,
    FleetModel,
    blend_curve,
    mode_calibration,
    mode_curve_matrix,
)
from repro.runtime import ExperimentRunner, ResultCache
from repro.runtime.spec_hash import spec_hash


@pytest.fixture(scope="module")
def fig5_small():
    return figures.fig5_blind_isolation(
        buffer_levels=(8,), qps_levels=(500.0,), duration=0.6, warmup=0.2, seed=3
    )


class TestFigureHarnessPlumbing:
    def test_fig5_rows_and_columns(self, fig5_small):
        assert fig5_small.figure_id == "fig5"
        assert len(fig5_small.rows) == 1
        row = fig5_small.rows[0]
        for column in ("workload", "qps", "p99_ms", "p99_delta_ms", "buffer_cores"):
            assert column in row
        assert row["buffer_cores"] == 8

    def test_row_lookup_helpers(self, fig5_small):
        row = fig5_small.row(workload="blind-8-buffers")
        assert row["qps"] == 500.0
        assert fig5_small.column("qps") == [500.0]
        with pytest.raises(KeyError):
            fig5_small.row(workload="missing")

    def test_headline_harness(self):
        figure = figures.headline_utilization(qps=500.0, duration=0.6, warmup=0.2, seed=3)
        assert len(figure.rows) == 2
        configs = {row["configuration"] for row in figure.rows}
        assert configs == {"standalone", "colocated+blind-isolation"}
        colocated = figure.row(configuration="colocated+blind-isolation")
        assert colocated["busy_cpu_pct"] > figure.row(configuration="standalone")["busy_cpu_pct"]

    def test_figure_from_matrix_scenario(self):
        figure = figures.figure_from_scenario(
            "no-isolation", grid={"bully_threads": (16,)},
            qps=500.0, duration=0.6, warmup=0.2, seed=3,
        )
        assert figure.figure_id == "matrix/no-isolation"
        assert len(figure.rows) == 1
        row = figure.rows[0]
        assert row["bully_threads"] == 16
        assert "p99_ms" in row and "progress:cpu-bully" in row

    def test_fig6_and_fig7_structures(self):
        fig6 = figures.fig6_static_cores(core_levels=(8,), qps_levels=(400.0,),
                                         duration=0.5, warmup=0.1, seed=2)
        assert fig6.rows[0]["secondary_cores"] == 8
        fig7 = figures.fig7_cpu_cycles(fractions=(0.25,), qps_levels=(400.0,),
                                       duration=0.5, warmup=0.1, seed=2)
        assert fig7.rows[0]["cpu_fraction_pct"] == pytest.approx(25.0)
        assert "drop_rate_pct" in fig7.rows[0]


class _RecordingRunner(ExperimentRunner):
    """Keeps the tasks of every batch it runs."""

    def __init__(self):
        super().__init__(max_workers=1, cache=ResultCache())
        self.tasks = []

    def run_batch(self, tasks):
        self.tasks.extend(tasks)
        return super().run_batch(tasks)


FIG10_SMALL = dict(duration=3600.0, bucket=600.0, calibration_duration=0.3, seed=3)


@pytest.fixture(scope="module")
def fig10_small():
    runner = _RecordingRunner()
    return figures.fig10_production(runner=runner, **FIG10_SMALL), runner


def _fig10_fleet():
    """The one-group fleet whose recipe Figure 10 applies."""
    group = MachineGroupSpec("fig10", machines=figures.FIG10_MACHINES)
    spec = FleetSpec(
        groups=(group,),
        calibration_qps=figures.FIG10_CALIBRATION_QPS,
        calibration_duration=FIG10_SMALL["calibration_duration"],
        calibration_warmup=figures.FIG10_CALIBRATION_WARMUP,
        seed=FIG10_SMALL["seed"],
    )
    return FleetModel(spec), group


class TestFig10Production:
    def test_produces_full_time_series(self, fig10_small):
        figure, _ = fig10_small
        assert figure.figure_id == "fig10"
        assert [row["time_s"] for row in figure.rows] == [0.0, 600.0, 1200.0, 1800.0,
                                                          2400.0, 3000.0]
        for row in figure.rows:
            assert set(row) == {"time_s", "row_qps", "tla_p99_ms", "cpu_utilization_pct"}

    def test_row_qps_is_the_fleet_load_curve(self, fig10_small):
        figure, _ = fig10_small
        model, group = _fig10_fleet()
        rows = figures.FIG10_CLUSTER.rows
        for row in figure.rows:
            assert row["row_qps"] == rows * model.load_at(group, row["time_s"])

    def test_load_peaks_and_troughs(self, fig10_small):
        figure, _ = fig10_small
        rows = figures.FIG10_CLUSTER.rows
        assert figure.row(time_s=0.0)["row_qps"] == pytest.approx(rows * 4000.0)
        assert figure.row(time_s=1800.0)["row_qps"] == pytest.approx(rows * 1600.0)

    def test_tail_latency_stays_bounded(self, fig10_small):
        """The headline of Figure 10: P99 stays flat (tens of ms) while the
        fleet runs at high utilisation."""
        figure, _ = fig10_small
        p99 = figure.column("tla_p99_ms")
        assert 0.0 < min(p99) and max(p99) < 80.0

    def test_high_average_utilization(self, fig10_small):
        figure, _ = fig10_small
        assert np.mean(figure.column("cpu_utilization_pct")) > 50.0

    #: spec_hash of the four calibration runs at FIG10_SMALL, as recorded
    #: before Figure 10 moved onto the fleet model: any drift in fig10's or
    #: ``FleetModel.calibration_spec``'s defaults would orphan cached runs.
    CALIBRATION_HASHES = [
        "c2db9446ce272c8346f40ace461a91cbcb96ff4ad7cd19ed02549486d85d8178",
        "663a0673a8ca2f5be888c9cd2489f6e2d3583126d8071f46c4680ea64367cae3",
        "fed6e6469fbb68332592a6053b02c68f33d68ff6acfc072e6b8056c17f5fd36c",
        "7e4fcf632e0b5d0d0a7826a3a6de9a84f8e6062aa7de93f9dd64e87259409696",
    ]

    def test_calibration_specs_keep_their_cache_keys(self, fig10_small):
        _, runner = fig10_small
        assert [spec_hash(task.spec) for task in runner.tasks] == self.CALIBRATION_HASHES

    def test_calibration_specs_match_the_fleet(self):
        """Figure 10 and a one-group fleet share calibration cache entries."""
        model, group = _fig10_fleet()
        assert [
            spec_hash(model.calibration_spec(group, "colocated", index))
            for index in range(len(figures.FIG10_CALIBRATION_QPS))
        ] == self.CALIBRATION_HASHES

    def test_tla_p99_is_capped_by_the_top_of_the_curve(self, fig10_small):
        """Local draws come from a quantile curve that stops at
        QUANTILE_GRID_MAX, so no TLA latency can exceed the curve's last point
        scaled by the slowest machine plus the fixed hop and aggregation
        costs. The cap is part of the model, not an accident of the data."""
        figure, runner = fig10_small
        # Served from the recording runner's cache, without recording again.
        outcomes = ExperimentRunner(max_workers=1, cache=runner.cache).run_batch(runner.tasks)
        colocated = mode_calibration(
            figures.FIG10_CALIBRATION_QPS, outcomes, FIG10_SMALL["calibration_duration"]
        )
        curves = mode_curve_matrix(colocated)
        cluster = figures.FIG10_CLUSTER
        overhead = (4 * cluster.network_hop_latency + cluster.mla_aggregation_cost
                    + 2 * cluster.tla_aggregation_cost)
        for index, row in enumerate(figure.rows):
            qps = row["row_qps"] / cluster.rows
            curve = blend_curve(curves, colocated, qps)
            samples = figures._fig10_local_samples(curve, FIG10_SMALL["seed"], index)
            skew = SampledClusterModel(
                cluster, samples, seed=FIG10_SMALL["seed"] + index
            )._machine_skew.max()
            cap_ms = (curve[-1] * skew + overhead) * 1000.0
            assert row["tla_p99_ms"] <= cap_ms * (1 + 1e-12)


class TestFig10BucketDraws:
    """The local-sample draw must vary per bucket, not per load level."""

    CURVE = np.linspace(0.002, 0.02, QUANTILE_POINTS)

    def test_same_load_other_bucket_draws_differ(self):
        first = figures._fig10_local_samples(self.CURVE, seed=7, bucket_index=0)
        second = figures._fig10_local_samples(self.CURVE, seed=7, bucket_index=1)
        assert not np.array_equal(first, second)

    def test_same_bucket_is_reproducible(self):
        first = figures._fig10_local_samples(self.CURVE, seed=7, bucket_index=3)
        second = figures._fig10_local_samples(self.CURVE, seed=7, bucket_index=3)
        assert np.array_equal(first, second)
        assert first.size == figures.FIG10_LOCAL_SAMPLES

    def test_draws_depend_on_experiment_seed(self):
        first = figures._fig10_local_samples(self.CURVE, seed=7, bucket_index=0)
        second = figures._fig10_local_samples(self.CURVE, seed=8, bucket_index=0)
        assert not np.array_equal(first, second)
