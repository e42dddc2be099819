"""The repository benchmark: one command per workload, medians over repetitions.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-direct --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host fingerprint, the output digest, the error rate and the raw
samples.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: At least this many repetitions, whatever ``--seconds`` says.
MIN_REPS = 3
#: Runner workers for the fleet workload (never more than the host has).
MAX_WORKERS = 2
#: Turns of the reference loop that measures ``host_ref_ops_per_s``.
REFERENCE_LOOPS = 150_000
#: Expected output digests, by workload, input size and seed.
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def reference_seconds() -> float:
    """Host seconds for a fixed pure-Python heap/dict loop (host context only)."""
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    total = 0
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 1023] = i
        total += table.get((i >> 1) & 1023, 0)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def host_fingerprint() -> Dict[str, Any]:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count() or 1,
        "host_ref_ops_per_s": REFERENCE_LOOPS / min(reference_seconds() for _ in range(3)),
    }


# ------------------------------------------------------------------ timing
def _cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform.startswith("linux") else kib / (1024.0 * 1024.0)


def repetition(workload, setup_tracer=None, timed_tracer=None) -> Dict[str, Any]:
    """One set-up plus one timed pass, in host seconds.

    Garbage left by the previous repetition is collected first, so each one
    starts from a clean heap as a fresh process would.  Tracers, when given,
    wrap the set-up and the timed pass.
    """
    gc.collect()
    start = time.perf_counter()
    with setup_tracer or contextlib.nullcontext():
        state = workload.setup()
    setup_s = time.perf_counter() - start
    try:
        cpu = _cpu_seconds()
        start = time.perf_counter()
        with timed_tracer or contextlib.nullcontext():
            timed = workload.timed(state)
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_seconds() - cpu
    finally:
        workload.teardown(state)
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "timed": timed}


# ----------------------------------------------------------------- checking
def expected_digest(workload: str, size: str, seed: int):
    """The committed output digest for this run, or ``None`` for an unrecorded seed."""
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(size, {}).get(str(seed))


class OutputCheck:
    """Every repetition's outputs must hold the invariants and match the expected digest.

    The expected digest is the committed one for the run's workload, size and
    seed; for a seed with none committed, it is the run's first digest.
    """

    def __init__(self, digest_fn, expected=None) -> None:
        self._digest = digest_fn
        self.expected = expected
        self.reference = None
        self.attempted = 0
        self.failures: List[str] = []
        self._failed_labels = set()

    def __call__(self, timed, label: str) -> None:
        self.attempted += 1
        for problem in timed.problems:
            self.fail(label, problem)
        digest = self._digest(timed.outputs)
        if self.reference is None:
            self.reference = digest
        expected = self.expected or self.reference
        if digest != expected:
            self.fail(label, f"output digest {digest[:12]} differs from {expected[:12]}")

    def fail(self, label: str, problem: str) -> None:
        self._failed_labels.add(label)
        self.failures.append(f"{label}: {problem}")

    @property
    def failed(self) -> int:
        return len(self._failed_labels)


# ------------------------------------------------------------------ running
def run_untraced(workload, seconds: float, check: OutputCheck) -> Dict[str, Any]:
    """Repetitions until ``--seconds`` is used, reported as medians."""
    reps: List[Dict[str, Any]] = []
    took: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        rep = repetition(workload)
        took.append(time.perf_counter() - start)
        check(rep["timed"], f"rep {len(reps)}")
        reps.append(rep)
        if len(reps) >= MIN_REPS and time.perf_counter() + statistics.median(took) > deadline:
            break
    samples = {name: [rep[name] for rep in reps] for name in ("wall_s", "cpu_s", "setup_s")}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = _peak_rss_mb()
    metrics["events_per_s"] = statistics.median(
        rep["timed"].events / rep["wall_s"] for rep in reps
    )
    metrics.update(reps[0]["timed"].sim)
    return {"metrics": metrics, "samples": samples}


def run_traced(workload, check: OutputCheck) -> Dict[str, Any]:
    """Traced and untraced repetitions, alternating after an untraced warm-up."""
    from perfbench_trace import EXACT_METRICS, TIME_METRICS, LayerTracer

    warmup = repetition(workload)
    check(warmup["timed"], "untraced warm-up")
    traced: List[Dict[str, float]] = []
    traced_wall: List[float] = []
    untraced_wall: List[float] = []
    for index in range(2):
        setup_tracer, timed_tracer = LayerTracer(), LayerTracer()
        rep = repetition(workload, setup_tracer, timed_tracer)
        check(rep["timed"], f"traced rep {index}")
        values = timed_tracer.metrics()
        values["fleet.calibrate_s"] = setup_tracer.metrics()["fleet.calibrate_s"]
        if workload.runs_des and values["simulation.events"] != rep["timed"].events:
            check.fail(
                f"traced rep {index}",
                f"traced {values['simulation.events']} events, "
                f"the engines executed {rep['timed'].events}",
            )
        traced.append(values)
        traced_wall.append(rep["wall_s"])
        plain = repetition(workload)
        check(plain["timed"], f"untraced rep {index}")
        untraced_wall.append(plain["wall_s"])
    for name in EXACT_METRICS:
        if traced[0][name] != traced[1][name]:
            check.fail(
                "traced rep 1", f"{name} was {traced[0][name]}, then {traced[1][name]}"
            )
    metrics = {name: traced[0][name] for name in EXACT_METRICS}
    metrics.update({name: statistics.fmean(v[name] for v in traced) for name in TIME_METRICS})
    metrics["tracing_overhead_pct"] = 100.0 * (
        statistics.fmean(traced_wall) / statistics.fmean(untraced_wall) - 1.0
    )
    return {
        "metrics": metrics,
        "samples": {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall},
    }


def declared_units(mode: str) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in declared[mode]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import perfbench_workloads

    units = declared_units("per_layer" if args.trace else "end_to_end")
    host = host_fingerprint()
    workers = max(1, min(MAX_WORKERS, host["nproc"]))
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = perfbench_workloads.make(args.workload, args.seed, args.size, workers, scratch)
        check = OutputCheck(
            perfbench_workloads.digest, expected_digest(args.workload, args.size, args.seed)
        )
        if args.trace:
            outcome = run_traced(workload, check)
        else:
            outcome = run_untraced(workload, args.seconds, check)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"printed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )
    failed = check.failed
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_size": workload.input_size(),
        "host": host,
        "digest": check.reference,
        "expected_digest": check.expected,
        "error_rate": failed / check.attempted,
        "failures": check.failures,
        "samples": outcome["samples"],
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
