"""The simulated multicore thread scheduler.

This is the substrate the whole reproduction rests on.  It deliberately models
an *ordinary* work-conserving OS scheduler — the kind PerfIso must live with
because changing the production kernel is off the table (Section 3.1):

* Round-robin time slicing with a fixed quantum.
* **Per-core ready queues with wake-time placement** (the default): a thread
  that becomes ready is dispatched immediately only if an idle core in its
  affinity mask exists; otherwise it is queued behind one specific core's
  running thread (its placement core) and waits for that core's quantum
  boundary.  Idle cores steal waiting threads, so the scheduler remains work
  conserving — but when *no* core is idle there is no migration, which is
  exactly why an unmanaged CPU-bound secondary inflates the primary's tail
  latency by an order of magnitude (Figure 4).  An idealised single global
  queue is available as ``placement="global"`` for ablation studies.
* **Hyper-threading contention**: when both logical siblings of a physical
  core are busy, each runs at ``smt_slowdown`` of full speed.  Dispatch
  prefers fully-idle physical cores, so a half-loaded machine ("mid" bully)
  still slows the primary's bursts even though cores look available.
* Affinity masks (thread- and job-level) are honoured on every dispatch, and
  changing a job's mask immediately preempts threads running on (or queued
  at) newly-forbidden cores.  This is the knob CPU blind isolation drives.
* Job-level CPU rate control is enforced per interval as a duty cycle, which
  reproduces the bursty occupancy that makes cycle throttling a poor
  isolation mechanism (Section 6.1.4).
* An idle-core bitmask is maintained at all times and exposed through the
  kernel syscall facade with O(1) cost — the low-latency signal blind
  isolation polls.

There is deliberately **no** priority preemption between tenants: the primary
and secondary compete as equals unless PerfIso intervenes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional

from ..config.schema import SchedulerSpec
from ..errors import SchedulerError
from ..hardware.topology import CpuTopology
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from .accounting import CpuAccounting
from .jobobject import JobObject
from .process import OsProcess
from .thread import SimThread, ThreadState

__all__ = ["Scheduler"]

_EPSILON = 1e-12
#: Tolerance used when deciding whether a CPU phase has finished; durations
#: are milliseconds-scale so a nanosecond of residual work is "done".
_WORK_EPSILON = 1e-9

#: Signature of the I/O submission hook the kernel installs: it receives the
#: blocked thread and the io phase parameters, and must eventually call the
#: completion callback exactly once.
IoSubmit = Callable[[SimThread, str, str, int, Callable[[], None]], None]


class Scheduler:
    """Work-conserving, quantum-based, affinity- and SMT-aware scheduler."""

    def __init__(
        self,
        engine: SimulationEngine,
        topology: CpuTopology,
        spec: SchedulerSpec,
        accounting: CpuAccounting,
        io_submit: Optional[IoSubmit] = None,
    ) -> None:
        self._engine = engine
        # The engine's queue, accessed directly on the slice-event hot path
        # (one push per dispatch, one lazy cancel per preemption).
        self._equeue = engine._queue
        self._topology = topology
        self._spec = spec
        self._accounting = accounting
        self._io_submit = io_submit
        core_count = topology.logical_core_count
        self._core_thread: List[Optional[SimThread]] = [None] * core_count
        self._last_tid_on_core: List[Optional[int]] = [None] * core_count
        self._idle_cores: set = set(range(core_count))
        #: Incrementally-maintained mirror of ``_idle_cores`` as a bitmask —
        #: the O(1) signal the idle-mask syscall reports.
        self._idle_mask = (1 << core_count) - 1
        self._siblings: List[tuple] = [
            tuple(c for c in topology.siblings(core) if c != core) for core in range(core_count)
        ]
        #: Logical core id -> physical core id, and the number of busy logical
        #: cores per physical core.  Together they answer "is this physical
        #: core fully idle?" and "does this dispatch share a physical core?"
        #: in O(1) instead of scanning sibling lists.
        self._phys_of: List[int] = [
            topology.core_info(core).physical_core for core in range(core_count)
        ]
        self._phys_busy: List[int] = [0] * topology.physical_core_count
        #: Cores currently running threads of each tenant category, maintained
        #: incrementally at dispatch/preempt time.
        self._cat_running: Dict[str, int] = {}
        self._per_core = spec.placement == "per_core"
        #: Fault-injection seam: a machine-wide dispatch-rate multiplier
        #: (``None`` = healthy).  Degraded/straggler-core faults set it to
        #: ``1/slowdown`` for a window; it multiplies the SMT-adjusted rate
        #: at dispatch time, so the healthy path pays one ``is None`` check.
        self._speed_factor: Optional[float] = None
        self._local_queues: List[Deque[SimThread]] = [deque() for _ in range(core_count)]
        self._global_queue: Deque[SimThread] = deque()
        self._queued_threads = 0
        #: Ready-but-waiting threads grouped by the job object they belonged
        #: to at enqueue time (``None`` key counted separately).  The dispatch
        #: path consults these counts to skip full queue scans when nothing
        #: queued could possibly run on the freed core — the common case under
        #: throttling and tight affinity masks.
        self._nojob_queued = 0
        self._job_queued: Dict[JobObject, int] = {}
        self._rate_jobs: Dict[str, JobObject] = {}
        self._rate_refresh_events: Dict[str, object] = {}
        # statistics
        self.dispatches = 0
        self.preemptions = 0
        self.context_switches = 0
        self.affinity_preemptions = 0
        self.throttle_preemptions = 0
        self.steals = 0
        self.smt_shared_dispatches = 0

    # ----------------------------------------------------------------- hooks
    def set_speed_factor(self, factor: Optional[float]) -> None:
        """Set (or clear, with ``None``) the machine-wide dispatch-rate factor.

        Used by fault injection to model degraded/straggler cores: every
        subsequent dispatch progresses at ``factor`` times normal speed.
        Slices already running keep the rate they were dispatched at; at
        quantum granularity the boundary error is one slice per core.
        """
        if factor is not None and factor <= 0.0:
            raise SchedulerError(f"speed factor must be positive, got {factor}")
        self._speed_factor = factor

    # ------------------------------------------------------------ inspection
    @property
    def spec(self) -> SchedulerSpec:
        return self._spec

    @property
    def core_count(self) -> int:
        return len(self._core_thread)

    def idle_core_ids(self) -> FrozenSet[int]:
        """The idle-core set (what the idle-mask syscall reports)."""
        return frozenset(self._idle_cores)

    def idle_core_count(self) -> int:
        return len(self._idle_cores)

    def idle_core_mask(self) -> int:
        return self._idle_mask

    def ready_queue_length(self) -> int:
        """Total number of runnable-but-waiting threads."""
        return self._queued_threads

    def cores_used_by_category(self, category: str) -> int:
        """Number of cores currently running threads of ``category``."""
        return self._cat_running.get(category, 0)

    # ------------------------------------------------------------- lifecycle
    def add_thread(self, thread: SimThread) -> None:
        """Make a newly created thread runnable."""
        if thread.state != ThreadState.NEW:
            raise SchedulerError(f"thread {thread.name!r} was already added")
        if thread.program[thread.phase_index][0] == "io":
            # A program may start with I/O (e.g. a worker that reads the index
            # before computing); submit it straight away.
            thread.state = ThreadState.BLOCKED
            self._submit_io(thread)
            return
        self._make_ready(thread)

    def terminate_thread(self, thread: SimThread) -> None:
        """Forcefully terminate a thread regardless of its state."""
        if thread.terminated:
            return
        if thread.state == ThreadState.RUNNING:
            core_id = thread.core_id
            self._stop_running(thread)
            thread.state = ThreadState.TERMINATED
            thread.core_id = None
            if core_id is not None:
                self._dispatch_core(core_id)
        elif thread.state == ThreadState.READY:
            self._remove_from_queues(thread)
            thread.state = ThreadState.TERMINATED
        else:
            # NEW or BLOCKED: the I/O completion path checks for termination.
            thread.state = ThreadState.TERMINATED

    def terminate_process(self, process: OsProcess) -> None:
        """Terminate every live thread of ``process``."""
        for thread in process.live_threads():
            self.terminate_thread(thread)
        process.alive = False

    # ------------------------------------------------------------ job events
    def on_job_changed(self, job: JobObject) -> None:
        """React to an affinity or rate-limit change on a job object."""
        self._configure_rate_control(job)
        self._enforce_affinity(job)
        # A grown mask (or a removed throttle) may allow parked threads to run.
        self._fill_idle_cores()

    # ------------------------------------------------------------- internals
    # ----------------------------------------------------------- ready queues
    def _make_ready(self, thread: SimThread) -> None:
        thread.state = ThreadState.READY
        thread.ready_since = self._engine._now
        core = self._find_idle_core(thread)
        if core is not None:
            self._dispatch(thread, core)
            return
        self._enqueue(thread)

    def _note_queued(self, thread: SimThread) -> None:
        """Account a thread entering a ready queue under its current job."""
        job = thread.process.job
        thread.queued_job = job
        if job is None:
            self._nojob_queued += 1
        else:
            counts = self._job_queued
            counts[job] = counts.get(job, 0) + 1

    def _note_dequeued(self, thread: SimThread) -> None:
        """Reverse :meth:`_note_queued` (keyed on the job stored at enqueue)."""
        job = thread.queued_job
        thread.queued_job = None
        if job is None:
            self._nojob_queued -= 1
        else:
            self._job_queued[job] -= 1

    def _has_eligible_queued(self, core_id: int) -> bool:
        """Whether any queued thread could possibly run on ``core_id``.

        Consulted before every dispatch scan; group counts make the answer
        O(jobs) instead of O(queued threads).  Thread-level affinity is
        ignored here, so a ``True`` may still scan and find nothing (harmless),
        but a ``False`` is always exact — no eligible thread is ever skipped.
        """
        if self._nojob_queued:
            return True
        for job, count in self._job_queued.items():
            if count and not job.throttled:
                affinity = job.cpu_affinity
                if affinity is None or core_id in affinity:
                    return True
        return False

    def _enqueue(self, thread: SimThread) -> None:
        self._queued_threads += 1
        self._note_queued(thread)
        if not self._per_core:
            thread.queued_core = None
            self._global_queue.append(thread)
            return
        affinity = thread.effective_affinity()
        queues = self._local_queues
        if self._queued_threads == 1:
            # Fast path: this is the only queued thread anywhere, so every
            # queue is empty and the shortest-queue scan degenerates to the
            # lowest allowed core id.
            if affinity is None:
                best_core = 0
            elif affinity:
                best_core = min(affinity)
            else:
                thread.queued_core = None
                self._global_queue.append(thread)
                return
        elif affinity is None:
            # Ascending scan keeps the deterministic tie-break (shortest
            # queue, lowest core id) without per-candidate comparisons.
            best_core = 0
            best_len = len(queues[0])
            for core_id in range(1, len(queues)):
                queue_len = len(queues[core_id])
                if queue_len < best_len:
                    best_core = core_id
                    best_len = queue_len
        else:
            best_core = None
            best_len = None
            for core_id in affinity:
                queue_len = len(queues[core_id])
                if best_len is None or queue_len < best_len or (
                    queue_len == best_len and core_id < best_core
                ):
                    best_core = core_id
                    best_len = queue_len
            if best_core is None:
                # Empty affinity mask: park the thread on a virtual queue; it
                # will be re-placed when the mask grows again.
                thread.queued_core = None
                self._global_queue.append(thread)
                return
        thread.queued_core = best_core
        queues[best_core].append(thread)

    def _remove_from_queues(self, thread: SimThread) -> None:
        removed = False
        if thread.queued_core is not None:
            try:
                self._local_queues[thread.queued_core].remove(thread)
                removed = True
            except ValueError:
                pass
        if not removed:
            try:
                self._global_queue.remove(thread)
                removed = True
            except ValueError:
                pass
        if removed:
            self._queued_threads -= 1
            self._note_dequeued(thread)
        thread.queued_core = None

    def _pop_eligible(self, queue: Deque[SimThread], core_id: int) -> Optional[SimThread]:
        # Eligibility (not terminated, job not throttled, affinity admits the
        # core) is checked inline: this loop runs for every queued thread on
        # every dispatch, so per-thread method calls are too expensive.
        index = 0
        terminated = ThreadState.TERMINATED
        for thread in queue:
            if thread.state != terminated:
                job = thread.process.job
                if job is None or not job.throttled:
                    affinity = thread.affinity
                    job_affinity = None if job is None else job.cpu_affinity
                    if affinity is None:
                        affinity = job_affinity
                    elif job_affinity is not None:
                        affinity = affinity & job_affinity
                    if affinity is None or core_id in affinity:
                        if index == 0:
                            queue.popleft()
                        else:
                            del queue[index]
                        self._queued_threads -= 1
                        thread.queued_core = None
                        self._note_dequeued(thread)
                        return thread
            index += 1
        return None

    def _dispatch_core(self, core_id: int) -> None:
        """Give an idle core to a waiting thread (local queue, then stealing)."""
        if self._core_thread[core_id] is not None:
            return
        if self._queued_threads == 0:
            return
        if not self._has_eligible_queued(core_id):
            return
        thread = None
        if self._per_core:
            local = self._local_queues[core_id]
            if local:
                thread = self._pop_eligible(local, core_id)
            if thread is None and self._global_queue:
                thread = self._pop_eligible(self._global_queue, core_id)
            if thread is None:
                # Work stealing: scan the other cores' queues, longest first
                # (ties by lowest core id), so load spreads out once cores
                # become idle.  Only non-empty queues are considered.
                queues = self._local_queues
                candidates = [
                    (-len(queue), victim)
                    for victim, queue in enumerate(queues)
                    if queue and victim != core_id
                ]
                if candidates:
                    candidates.sort()
                    for _, victim in candidates:
                        thread = self._pop_eligible(queues[victim], core_id)
                        if thread is not None:
                            self.steals += 1
                            break
        elif self._global_queue:
            thread = self._pop_eligible(self._global_queue, core_id)
        if thread is not None:
            self._dispatch(thread, core_id)

    def _fill_idle_cores(self) -> None:
        if self._queued_threads == 0 or not self._idle_cores:
            return
        for core_id in sorted(self._idle_cores):
            if self._core_thread[core_id] is None:
                self._dispatch_core(core_id)

    def _find_idle_core(self, thread: SimThread) -> Optional[int]:
        idle = self._idle_cores
        if not idle:
            return None
        job = thread.process.job
        if job is not None and job.throttled:
            return None
        affinity = thread.affinity
        job_affinity = None if job is None else job.cpu_affinity
        if affinity is None:
            affinity = job_affinity
        elif job_affinity is not None:
            affinity = affinity & job_affinity
        if affinity is None:
            candidates = idle
        else:
            candidates = idle & affinity
            if not candidates:
                return None
        # Prefer cores whose hyper-thread siblings are all idle (an empty
        # physical core), like a real scheduler; lowest id for determinism.
        phys_busy = self._phys_busy
        phys_of = self._phys_of
        best = None
        for core_id in candidates:
            if phys_busy[phys_of[core_id]] == 0 and (best is None or core_id < best):
                best = core_id
        if best is not None:
            return best
        return min(candidates)

    # --------------------------------------------------------------- running
    def _dispatch(self, thread: SimThread, core_id: int) -> None:
        if self._core_thread[core_id] is not None:
            raise SchedulerError(f"core {core_id} is already running a thread")
        if thread.program[thread.phase_index][0] != "cpu":
            raise SchedulerError(f"thread {thread.name!r} dispatched while not in a CPU phase")
        engine = self._engine
        spec = self._spec
        process = thread.process
        self._idle_cores.discard(core_id)
        self._idle_mask &= ~(1 << core_id)
        self._core_thread[core_id] = thread
        phys = self._phys_of[core_id]
        phys_busy = self._phys_busy[phys] + 1
        self._phys_busy[phys] = phys_busy
        category = process.category
        cat_running = self._cat_running
        cat_running[category] = cat_running.get(category, 0) + 1
        now = engine._now
        if thread.ready_since is not None:
            thread.total_ready_wait += now - thread.ready_since
            thread.ready_since = None
        thread.state = ThreadState.RUNNING
        thread.core_id = core_id
        thread.queued_core = None
        self.dispatches += 1
        if self._last_tid_on_core[core_id] != thread.tid:
            self.context_switches += 1
            thread.context_switches += 1
            self._accounting.charge_os(spec.context_switch_cost)
        self._last_tid_on_core[core_id] = thread.tid

        # A busy hyper-thread sibling means this physical core is now shared.
        rate = spec.smt_slowdown if phys_busy > 1 else 1.0
        if rate < 1.0:
            self.smt_shared_dispatches += 1
        if self._speed_factor is not None:
            rate *= self._speed_factor
        remaining = thread.remaining_in_phase
        quantum = spec.quantum
        if remaining == math.inf:
            slice_length = quantum
        else:
            wall_needed = remaining / rate
            slice_length = quantum if quantum < wall_needed else wall_needed
        job = process.job
        if job is None:
            thread.slice_reserved = False
        else:
            job.running_threads += 1
            if job.cpu_rate_fraction is not None:
                # Reserve budget at dispatch time so concurrently running
                # threads cannot collectively overshoot the duty cycle; the
                # unused part of a reservation is refunded on preemption.
                duty = job.cpu_rate_fraction * spec.rate_interval
                slice_length = min(slice_length, duty, max(job.rate_budget, _EPSILON))
                thread.slice_reserved = True
            else:
                thread.slice_reserved = False
        if slice_length < _EPSILON:
            slice_length = _EPSILON
        if thread.slice_reserved:
            job.rate_budget -= slice_length
        thread.dispatched_at = now
        thread.slice_length = slice_length
        thread.slice_rate = rate
        # Direct queue push — the engine.schedule wrapper (delay validation,
        # *args packing) costs real time at ~one dispatch per quantum per core.
        thread.slice_event = self._equeue.push(
            now + slice_length, self._slice_end, (thread,), EventPriority.KERNEL
        )

    def _stop_running(self, thread: SimThread) -> float:
        """Charge the elapsed part of the current slice and free the core."""
        if thread.state != ThreadState.RUNNING or thread.core_id is None:
            raise SchedulerError(f"thread {thread.name!r} is not running")
        engine = self._engine
        elapsed = engine._now - thread.dispatched_at
        elapsed = min(max(elapsed, 0.0), thread.slice_length)
        event = thread.slice_event
        if event is not None:
            # Inline engine.cancel: the slice event is never already
            # cancelled, so only the pending/popped distinction matters.
            event.cancelled = True
            if event.in_queue:
                self._equeue.notify_cancel()
            thread.slice_event = None
        core_id = thread.core_id
        self._core_thread[core_id] = None
        self._idle_cores.add(core_id)
        self._idle_mask |= 1 << core_id
        self._phys_busy[self._phys_of[core_id]] -= 1
        self._cat_running[thread.process.category] -= 1
        job_of_thread = thread.process.job
        if job_of_thread is not None:
            if job_of_thread.running_threads > 0:
                job_of_thread.running_threads -= 1
            if thread.slice_reserved and job_of_thread.cpu_rate_fraction is not None:
                # Refund the unused part of the budget reserved at dispatch.
                job_of_thread.rate_budget += max(0.0, thread.slice_length - elapsed)
        thread.slice_reserved = False
        if elapsed > 0:
            process = thread.process
            thread.total_cpu_time += elapsed
            remaining = thread.remaining_in_phase
            if remaining != math.inf:
                remaining -= elapsed * thread.slice_rate
                thread.remaining_in_phase = remaining if remaining > 0.0 else 0.0
            self._accounting.charge(process.category, elapsed, process.name)
            process.cpu_time += elapsed
        return elapsed

    def _phase_finished(self, thread: SimThread) -> bool:
        return (
            thread.is_cpu_phase
            and not math.isinf(thread.remaining_in_phase)
            and thread.remaining_in_phase <= _WORK_EPSILON
        )

    def _slice_end(self, thread: SimThread) -> None:
        thread.slice_event = None
        if thread.state != ThreadState.RUNNING:
            return
        core_id = thread.core_id
        self._stop_running(thread)
        thread.core_id = None

        job = thread.process.job
        if (
            job is not None
            and job.cpu_rate_fraction is not None
            and job.rate_budget <= _EPSILON
            and not job.throttled
        ):
            self._throttle_job(job)

        # The thread is still on its CPU phase here, so the phase is finished
        # iff the remaining work hit zero (inf fails the comparison).
        if thread.remaining_in_phase <= _WORK_EPSILON:
            self._continue_program(thread)
            self._dispatch_core(core_id)
            return
        self.preemptions += 1
        # Hand the freed core to waiting threads first (round robin), then
        # requeue the preempted thread.
        self._dispatch_core(core_id)
        self._make_ready(thread)

    def _continue_program(self, thread: SimThread) -> None:
        """Advance a thread past a finished phase."""
        if not thread.advance_phase():
            thread.state = ThreadState.TERMINATED
            if thread.on_complete is not None:
                thread.on_complete(thread)
            return
        if thread.program[thread.phase_index][0] == "cpu":
            self._make_ready(thread)
        else:
            thread.state = ThreadState.BLOCKED
            self._submit_io(thread)

    def _submit_io(self, thread: SimThread) -> None:
        if self._io_submit is None:
            raise SchedulerError(
                "no I/O submission hook installed; build the scheduler through Kernel"
            )
        _, volume, op, size_bytes = thread.current_phase
        self._io_submit(thread, volume, op, size_bytes, lambda: self._io_done(thread))

    def _io_done(self, thread: SimThread) -> None:
        if thread.terminated:
            return
        self._continue_program(thread)

    # ---------------------------------------------------------- rate control
    def _preempt_job_threads(self, job: JobObject) -> None:
        """Preempt every running member thread so it is re-dispatched under the
        job's current limits (used when a rate limit is first configured)."""
        for core_id, running in enumerate(self._core_thread):
            if running is None or running.process.job is not job:
                continue
            self._stop_running(running)
            running.core_id = None
            if self._phase_finished(running):
                self._continue_program(running)
            else:
                running.state = ThreadState.READY
                running.ready_since = self._engine.now
                self._enqueue(running)
            self._dispatch_core(core_id)

    def _configure_rate_control(self, job: JobObject) -> None:
        has_rate = job.cpu_rate_fraction is not None
        registered = job.name in self._rate_jobs
        if has_rate and not registered:
            self._rate_jobs[job.name] = job
            job.rate_budget = (
                job.cpu_rate_fraction * self._spec.rate_interval * self.core_count
            )
            job.throttled = False
            event = self._engine.schedule(
                self._spec.rate_interval,
                self._refresh_rate_budget,
                job,
                priority=EventPriority.KERNEL,
            )
            self._rate_refresh_events[job.name] = event
            self._preempt_job_threads(job)
        elif not has_rate and registered:
            self._rate_jobs.pop(job.name, None)
            event = self._rate_refresh_events.pop(job.name, None)
            self._engine.cancel(event)
            job.throttled = False

    def _refresh_rate_budget(self, job: JobObject) -> None:
        if job.cpu_rate_fraction is None:
            return
        job.rate_budget = job.cpu_rate_fraction * self._spec.rate_interval * self.core_count
        job.throttled = False
        self._rate_refresh_events[job.name] = self._engine.schedule(
            self._spec.rate_interval,
            self._refresh_rate_budget,
            job,
            priority=EventPriority.KERNEL,
        )
        self._fill_idle_cores()

    def _throttle_job(self, job: JobObject) -> None:
        job.throttled = True
        for core_id, running in enumerate(self._core_thread):
            if running is None or running.process.job is not job:
                continue
            self.throttle_preemptions += 1
            self._stop_running(running)
            running.core_id = None
            running.state = ThreadState.READY
            running.ready_since = self._engine.now
            self._enqueue(running)
            self._dispatch_core(core_id)

    # ------------------------------------------------------------- affinity
    def _enforce_affinity(self, job: JobObject) -> None:
        # Preempt member threads running on newly-forbidden cores.  The scan
        # cannot be gated on ``job.running_threads``: threads dispatched
        # before their process joined the job are not counted there.
        self._preempt_forbidden(job)
        # Re-place member threads queued at cores they may no longer use.
        if self._per_core and self._queued_threads:
            for core_id, queue in enumerate(self._local_queues):
                if not queue:
                    continue
                stranded = [
                    t for t in queue if t.process.job is job and not t.can_run_on(core_id)
                ]
                for thread in stranded:
                    queue.remove(thread)
                    self._queued_threads -= 1
                    self._note_dequeued(thread)
                    thread.queued_core = None
                    self._make_ready(thread)

    def _preempt_forbidden(self, job: JobObject) -> None:
        for core_id, running in enumerate(self._core_thread):
            if running is None or running.process.job is not job:
                continue
            if running.can_run_on(core_id) and not job.throttled:
                continue
            self.affinity_preemptions += 1
            self._stop_running(running)
            running.core_id = None
            if self._phase_finished(running):
                self._continue_program(running)
            else:
                running.state = ThreadState.READY
                running.ready_since = self._engine.now
                self._enqueue(running)
            self._dispatch_core(core_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(cores={self.core_count}, idle={len(self._idle_cores)}, "
            f"queued={self._queued_threads})"
        )
