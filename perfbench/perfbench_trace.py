"""Per-layer tracing for the benchmark's traced run.

The tracer wraps calls into each layer's public functions from outside the
simulator (``src/repro`` is not modified) and restores them on exit:

* ``EventQueue.push`` is wrapped, so every event — including the scheduler's
  direct queue pushes — runs through a span named after the layer of its
  handler's module (``repro.<layer>.*``);
* a fixed set of public entry points (``SPANS``) gets a span each.

A span's self time is its duration minus the time of the spans nested in
it; a layer's self time is the sum over its spans.  Spans are kept as
in-memory totals, never written out.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: The layers reported, each a ``src/repro`` package.
LAYERS = ("simulation", "hostos", "hardware", "core", "tenants", "workloads", "metrics",
          "runtime", "fleet")

#: Counts, and ratios of counts, that must repeat exactly across two traced
#: runs of one seed.
EXACT_METRICS = (
    "simulation.events",
    "simulation.cancelled_ratio",
    "hostos.events",
    "hostos.threads_spawned",
    "hostos.iostack_submits",
    "hardware.events",
    "core.events",
    "tenants.events",
    "tenants.queries",
    "workloads.events",
    "runtime.spec_hash_calls",
    "runtime.cache_hits",
    "runtime.cache_misses",
    "runtime.cache_hit_ratio",
)

#: Time metrics, averaged over the traced repetitions.
TIME_METRICS = (
    "simulation.self_s",
    "hostos.self_s",
    "hardware.self_s",
    "core.self_s",
    "tenants.self_s",
    "workloads.self_s",
    "metrics.self_s",
    "runtime.spec_hash_s",
    "runtime.cache_get_s",
    "runtime.cache_put_s",
    "runtime.map_self_s",
    "fleet.calibrate_s",
    "fleet.placement_s",
    "fleet.build_demands_s",
    "fleet.run_self_s",
)

#: ``(module, owner, attribute, span)``: the public entry points given a
#: span.  ``owner`` is a class name, or ``None`` for a module-level function
#: (rebound under every name ``repro`` modules import it by).
SPANS = (
    ("repro.simulation.engine", "SimulationEngine", "run", "simulation.run"),
    ("repro.hostos.syscalls", "Kernel", "spawn_thread", "hostos.spawn_thread"),
    ("repro.hostos.iostack", "IoStack", "submit", "hostos.iostack_submit"),
    ("repro.hardware.disk", "StripedVolume", "submit", "hardware.volume_submit"),
    ("repro.tenants.indexserve", "IndexServeTenant", "submit", "tenants.submit"),
    ("repro.metrics.latency", "LatencyCollector", "record", "metrics.record"),
    ("repro.runtime.spec_hash", None, "spec_hash", "runtime.spec_hash"),
    ("repro.runtime.cache", "ResultCache", "put", "runtime.cache_put"),
    ("repro.runtime.runner", "ExperimentRunner", "map", "runtime.map"),
    ("repro.runtime.runner", "ExperimentRunner", "run_batch", "runtime.run_batch"),
    ("repro.fleet.model", "FleetModel", "calibrate", "fleet.calibrate"),
    ("repro.fleet.placement", None, "plan_placement", "fleet.placement"),
    ("repro.fleet.simulate", None, "build_demands", "fleet.build_demands"),
    ("repro.fleet.simulate", "FleetSimulation", "run", "fleet.run"),
)


class LayerTracer:
    """Counts and times spans per layer while installed (a context manager)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.cache_hits = 0
        self.cache_misses = 0
        #: Live events left queued when each engine's last run() returned.
        self.pending_at_end = 0
        self._pending: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: Child-span time accumulated by each open span (root at index 0).
        self._stack: List[float] = [0.0]
        self._event_spans: Dict[str, str] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- installing
    def __enter__(self) -> "LayerTracer":
        import importlib

        for module, owner, attribute, span in SPANS:
            target = importlib.import_module(module)
            if owner is None:
                self._rebind_function(getattr(target, attribute), span)
            else:
                self._wrap_method(getattr(target, owner), attribute, span)
        self._wrap_cache_get()
        self._wrap_push()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _span(self, name: str, fn: Callable) -> Callable:
        stack, calls = self._stack, self.calls
        inclusive, exclusive = self.inclusive, self.exclusive
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                exclusive[name] += elapsed - stack.pop()
                inclusive[name] += elapsed
                stack[-1] += elapsed
                calls[name] += 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, cls: type, attribute: str, span: str) -> None:
        original = cls.__dict__[attribute]
        traced = self._span(span, original)
        if span == "simulation.run":
            traced = self._note_pending(traced)
        self._set(cls, attribute, traced)

    def _rebind_function(self, fn: Callable, span: str) -> None:
        traced = self._span(span, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attribute, traced)

    def _note_pending(self, run: Callable) -> Callable:
        """Record the live events an engine leaves queued after each run()."""
        pending = self._pending

        def traced_run(engine, *args, **kwargs):
            try:
                return run(engine, *args, **kwargs)
            finally:
                left = engine.pending_events
                self.pending_at_end += left - pending.get(engine, 0)
                pending[engine] = left

        return traced_run

    def _wrap_cache_get(self) -> None:
        from repro.runtime.cache import ResultCache

        get = self._span("runtime.cache_get", ResultCache.__dict__["get"])

        def traced_get(cache, *args, **kwargs):
            hits = cache.hits
            value = get(cache, *args, **kwargs)
            if cache.hits > hits:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return value

        self._set(ResultCache, "get", traced_get)

    def _wrap_push(self) -> None:
        from repro.simulation.events import EventPriority, EventQueue

        stack, calls, exclusive = self._stack, self.calls, self.exclusive
        event_spans = self._event_spans
        clock = time.perf_counter
        push = EventQueue.__dict__["push"]

        def run_event(callback, span, args):
            stack.append(0.0)
            start = clock()
            try:
                callback(*args)
            finally:
                elapsed = clock() - start
                exclusive[span] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[span] += 1

        def traced_push(queue, time_, callback, args=(), priority=EventPriority.DEFAULT):
            stack.append(0.0)
            start = clock()
            try:
                module = getattr(callback, "__module__", None)
                span = event_spans.get(module)
                if span is None:
                    span = event_spans[module] = f"{_layer_of(module)}.event"
                return push(queue, time_, run_event, (callback, span, args), priority)
            finally:
                elapsed = clock() - start
                exclusive["simulation.push"] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls["simulation.push"] += 1

        self._set(EventQueue, "push", traced_push)

    # ------------------------------------------------------------ reporting
    @property
    def events_executed(self) -> int:
        return sum(count for span, count in self.calls.items() if span.endswith(".event"))

    def metrics(self) -> Dict[str, float]:
        """Every count and time metric named in ``EXACT_METRICS``/``TIME_METRICS``."""
        calls, inclusive = self.calls, self.inclusive
        self_s: Dict[str, float] = defaultdict(float)
        for span, seconds in self.exclusive.items():
            self_s[span.split(".", 1)[0]] += seconds
        pushed = calls["simulation.push"]
        executed = self.events_executed
        cancelled = pushed - executed - self.pending_at_end
        lookups = self.cache_hits + self.cache_misses
        values: Dict[str, float] = {
            "simulation.events": executed,
            "simulation.cancelled_ratio": cancelled / pushed if pushed else 0.0,
            "hostos.threads_spawned": calls["hostos.spawn_thread"],
            "hostos.iostack_submits": calls["hostos.iostack_submit"],
            "tenants.queries": calls["tenants.submit"],
            "runtime.spec_hash_calls": calls["runtime.spec_hash"],
            "runtime.spec_hash_s": inclusive["runtime.spec_hash"],
            "runtime.cache_hits": self.cache_hits,
            "runtime.cache_misses": self.cache_misses,
            "runtime.cache_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "runtime.cache_get_s": inclusive["runtime.cache_get"],
            "runtime.cache_put_s": inclusive["runtime.cache_put"],
            "runtime.map_self_s": self.exclusive["runtime.map"],
            "fleet.calibrate_s": inclusive["fleet.calibrate"],
            "fleet.placement_s": inclusive["fleet.placement"],
            "fleet.build_demands_s": inclusive["fleet.build_demands"],
            "fleet.run_self_s": self.exclusive["fleet.run"],
        }
        for layer in LAYERS:
            values.setdefault(f"{layer}.events", calls[f"{layer}.event"])
            values[f"{layer}.self_s"] = self_s[layer]
        return {name: values[name] for name in EXACT_METRICS + TIME_METRICS}


def _layer_of(module) -> str:
    """``repro.<layer>.*`` -> ``<layer>``; anything else is ``other``."""
    parts = (module or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"
