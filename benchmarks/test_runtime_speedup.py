"""Wall-clock benchmark of the parallel runtime + calibration cache.

Times the Figure 8 comparison harness (all five scenarios) three ways —
serial without caching (the pre-runtime behaviour), fanned across all cores,
and re-run against a warm cache — and records the results in
``BENCH_runtime.json`` at the repository root.  Also verifies that a cached
re-run of the Figure 10 production harness skips every duplicate
single-machine calibration run.
"""

from __future__ import annotations

import json
import os
import time

from conftest import DURATION, SEED, WARMUP

from repro.experiments import figures
from repro.runtime import ExperimentRunner, ResultCache

_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)


def _timed_fig8(runner):
    start = time.perf_counter()
    figure = figures.fig8_comparison(
        duration=DURATION, warmup=WARMUP, seed=SEED, runner=runner
    )
    return time.perf_counter() - start, figure


def test_runtime_speedup_and_cache():
    cores = os.cpu_count() or 1

    serial_seconds, serial_figure = _timed_fig8(
        ExperimentRunner(max_workers=1, cache=ResultCache(), use_cache=False)
    )

    cache = ResultCache()
    parallel_runner = ExperimentRunner(max_workers=cores, cache=cache)
    parallel_seconds, parallel_figure = _timed_fig8(parallel_runner)
    stores_after_cold = cache.stores

    cached_seconds, cached_figure = _timed_fig8(parallel_runner)

    # Correctness first: all three executions produce identical rows.
    assert parallel_figure.rows == serial_figure.rows
    assert cached_figure.rows == serial_figure.rows
    # The warm run simulated nothing.
    assert cache.stores == stores_after_cold

    speedup_parallel = serial_seconds / parallel_seconds
    speedup_cached = serial_seconds / cached_seconds
    # The cache alone guarantees the headline >= 2x.  The cold parallel
    # speedup depends on how loaded the runner is, so it is recorded in the
    # JSON rather than asserted — gating CI on wall-clock parallelism flakes
    # on contended shared runners.
    assert speedup_cached >= 2.0

    # Figure 10 calibration: a second run (shared cache) must skip every
    # duplicate single-machine simulation.
    calibration_cache = ResultCache()
    calibration_runner = ExperimentRunner(max_workers=cores, cache=calibration_cache)

    def _calibrate():
        # A single time bucket, so the run is almost all calibration.
        start = time.perf_counter()
        figure = figures.fig10_production(
            duration=60.0, bucket=60.0, calibration_duration=1.0, seed=SEED,
            runner=calibration_runner,
        )
        return time.perf_counter() - start, figure

    cold_calibration_seconds, cold_figure = _calibrate()
    stores_after_calibration = calibration_cache.stores
    assert stores_after_calibration == len(figures.FIG10_CALIBRATION_QPS)
    warm_calibration_seconds, warm_figure = _calibrate()
    assert calibration_cache.stores == stores_after_calibration
    assert warm_figure.rows == cold_figure.rows
    assert warm_calibration_seconds < cold_calibration_seconds

    record = {
        "benchmark": "fig8_comparison (5 scenarios) + fig10 calibration",
        "duration_simulated_s": DURATION,
        "warmup_simulated_s": WARMUP,
        "seed": SEED,
        "cpu_count": cores,
        "fig8_serial_uncached_s": round(serial_seconds, 3),
        "fig8_parallel_cold_s": round(parallel_seconds, 3),
        "fig8_cached_s": round(cached_seconds, 4),
        "speedup_parallel_cold": round(speedup_parallel, 2),
        "speedup_cached": round(speedup_cached, 1),
        "calibration_cold_s": round(cold_calibration_seconds, 3),
        "calibration_cached_s": round(warm_calibration_seconds, 4),
        "cache_entries": len(cache),
    }
    from repro.reporting.bench import merge_bench_record

    record = merge_bench_record(_BENCH_PATH, record)
    print(f"\nBENCH_runtime: {json.dumps(record, indent=2)}")