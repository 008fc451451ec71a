"""The fluid engine: one event loop over jobs injected at any time.

:class:`LiveFluidEngine` is the repo's single fluid simulation core.  It
owns the task and flow bookkeeping and the event loop, and drives the
link-connected component machinery of
:class:`~repro.simulation.simulator._ComponentRegistry` (union-find,
event heap, lazy re-solve, local link indexing).  Jobs enter
mid-flight: a new DAG's tasks append to the live processor queues and
its redistribution flows join the live component registry, re-solving
only the components they touch.

* :meth:`inject` — add a scheduled job at the current virtual time
  (tasks, per-processor queue entries, edge flows, pair table rows);
* :meth:`advance_until` — run the event loop up to a target time and
  stop, so arrivals can interleave with in-flight events;
* :meth:`drain` — run until every injected task has finished.

Batch simulation is this engine with one job:
:func:`~repro.simulation.simulator.simulate` injects the schedule at
t=0 under the schedule's own task names and drains.

Flows live and die per redistribution edge: an injected edge becomes
one contiguous flow-id range, its producer's completion pushes one
release entry per distinct release instant, a released group joins its
component in one step when it revives drained rows of one component
(the steady state of a stream that reuses processor sets), and each
event's completions reach the task bookkeeping in one call.

Task names
----------
Tasks are namespaced ``"<job_id>/<task>"`` internally.  A uniform
prefix preserves every heap tie-break order within a job, so a single
job injected at t=0 and drained replays ``simulate(schedule)`` byte for
byte — ``tests/test_online_engine.py`` pins that against the dense-DAG
scenario, and the batch wrapper itself injects with an empty prefix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.scheduling.schedule import Schedule
from repro.simulation.simulator import (
    _REL_BYTES_EPS,
    _TIME_EPS,
    _ComponentRegistry,
    _edge_counts,
    _grow,
    _PairTable,
    _push_release,
    _StagedFlows,
)
from repro.simulation.trace import FlowTrace, TaskTrace

__all__ = ["LiveFluidEngine", "LiveJobState"]


@dataclass
class LiveJobState:
    """Per-job execution state the engine tracks for metrics."""

    job_id: str
    inject_time: float
    n_tasks: int
    n_done: int = 0
    start: float | None = None
    completion: float | None = None

    @property
    def finished(self) -> bool:
        return self.n_done == self.n_tasks


class LiveFluidEngine:
    """Persistent, injectable fluid simulation over one platform.

    Parameters
    ----------
    cluster:
        The shared platform every injected schedule was mapped onto
        (anything with a ``.topology``, including multi-cluster
        platforms).  Processor ids in injected schedules are global ids
        on this platform.
    collect_flow_traces:
        Keep per-flow trace records (off by default: a 100-task DAG can
        spawn tens of thousands of flows).
    lazy:
        Re-solve only touched components (default); ``False`` re-solves
        every live component at every flow-set change — byte-identical
        traces, kept as the full-solve oracle for the dirty-tracking.

    The public entry points validate their input and delegate to private
    bodies (:meth:`_inject`, :meth:`_drain`).  ``simulate`` calls the
    bodies directly, so a profiler that wraps the public entry points
    books a batch run once, to the batch call, and not a second time to
    this engine.
    """

    def __init__(self, cluster, *, collect_flow_traces: bool = False,
                 lazy: bool = True) -> None:
        self.cluster = cluster
        self.topo = cluster.topology
        self.capacities = self.topo.capacity_array
        self.lazy = lazy
        self.collect_flow_traces = collect_flow_traces

        # ---- pair table (shared across jobs, keyed by (src, dst)) ---- #
        self.pairs = _PairTable(self.topo)

        # ---- global flow arrays (amortised append) ---- #
        self.nf = 0
        self.size = np.empty(8, dtype=float)
        self.remaining = np.empty(8, dtype=float)
        self.done_threshold = np.empty(8, dtype=float)
        self.lat = np.empty(8, dtype=float)
        self.src = np.empty(8, dtype=np.intp)
        self.dst = np.empty(8, dtype=np.intp)
        self.pair_of = np.empty(8, dtype=np.intp)
        self.release_time = np.empty(8, dtype=float)
        self.edge_of: list[int] = []

        # ---- component machinery ---- #
        self.reg = _ComponentRegistry(self.capacities, self.pairs.routes,
                                      self.pairs.cap, lazy=lazy)
        self.reg.bind(self.remaining, self.done_threshold, self.pair_of)

        # ---- task bookkeeping ---- #
        self.edges: list[tuple[str, str]] = []   # global (namespaced) names
        self.total = 0
        self.exec_time: dict[str, float] = {}
        self.procs_of: dict[str, tuple[int, ...]] = {}
        self.succs: dict[str, list[str]] = {}
        self.proc_queue: dict[int, list[str]] = {}
        self.queue_pos: dict[int, int] = {}
        self.preds_left: dict[str, int] = {}
        self.flows_left: dict[str, int] = {}
        self.out_ranges: dict[str, list[tuple[int, int]]] = {}
        self.started: set[str] = set()
        self.done_tasks: set[str] = set()
        self.task_start: dict[str, float] = {}
        self.finish_heap: list[tuple[float, str]] = []
        # (time, first flow id, flow ids): see _push_release
        self.release_heap: list[tuple[float, int, np.ndarray]] = []
        self.traces: dict[str, TaskTrace] = {}
        self.flow_traces: list[FlowTrace] = []
        self.check_ready: set[str] = set()
        # span of the finished tasks, kept as they finish
        self._first_start = math.inf
        self._last_finish = -math.inf

        # ---- jobs ---- #
        self.jobs: dict[str, LiveJobState] = {}
        self.job_of_task: dict[str, LiveJobState] = {}
        self._newly_completed: list[str] = []

        self.now = 0.0
        self.events = 0
        self._loop_s = 0.0        # event-loop wall clock

    # solver counters live on the registry
    @property
    def solves_full(self) -> int:
        return self.reg.solves_full

    @property
    def solves_component(self) -> int:
        return self.reg.solves_component

    @property
    def solve_rows(self) -> int:
        return self.reg.solve_rows

    @property
    def solve_s(self) -> float:
        """Wall-clock seconds inside the rate re-solve phase."""
        return self.reg.solve_s

    @property
    def event_s(self) -> float:
        """Event-loop wall clock outside the solve phase."""
        return self._loop_s - self.reg.solve_s

    # ------------------------------------------------------------------ #
    # injection
    # ------------------------------------------------------------------ #
    def inject(self, job_id: str, schedule: Schedule, at: float) -> None:
        """Add a scheduled job's tasks and flows at virtual time ``at``.

        ``at`` must be finite and must not precede the current virtual
        time; ready source tasks start immediately at ``at``.  The
        schedule must hold at least one task.  Every processor id is
        checked against the platform, and every edge is expanded into
        locals, before the job's tasks and flows are recorded: a
        rejected job leaves nothing behind that could stall later ones.
        """
        self._inject(job_id, schedule, at, f"{job_id}/")

    def _inject(self, job_id: str, schedule: Schedule, at: float,
                prefix: str) -> None:
        """:meth:`inject`, naming the job's tasks ``prefix + task``."""
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        if not math.isfinite(at) or at < self.now - _TIME_EPS:
            raise ValueError(
                f"cannot inject {job_id!r} at t={at} (now={self.now})")
        graph = schedule.graph
        names = graph.task_names()
        if not names:
            raise ValueError(f"{job_id!r}: the schedule has no tasks")
        entries = [schedule[n] for n in names]
        n_procs = self.cluster.num_procs
        for e in entries:
            for p in e.procs:
                if not 0 <= p < n_procs:
                    raise ValueError(
                        f"{job_id!r}: task {e.task!r} on processor {p}, "
                        f"outside the platform's {n_procs}")
        gname = {n: prefix + n for n in names}

        # expand every edge into staged locals, in graph edge order, with
        # pair ids resolved against the shared pair table
        staged = _StagedFlows()
        new_edges = [
            (gname[u], gname[v], *self.pairs.expand_edge(
                schedule[u].procs, schedule[v].procs, data, staged))
            for u, v, data in graph.edges()]
        self.reg.comp_of_pair.extend(
            [-1] * (len(self.pairs.routes) - len(self.reg.comp_of_pair)))

        # ---- commit ---- #
        job = LiveJobState(job_id=job_id, inject_time=at,
                           n_tasks=len(names))
        for n, e in zip(names, entries):
            g = gname[n]
            self.exec_time[g] = e.duration
            self.procs_of[g] = e.procs
            self.preds_left[g] = len(graph.predecessors(n))
            self.flows_left[g] = 0
            self.succs[g] = [gname[s] for s in graph.successors(n)]
            self.out_ranges[g] = []
            self.job_of_task[g] = job
        for p, timeline in schedule.proc_timeline().items():
            self.proc_queue.setdefault(p, []).extend(
                gname[e.task] for e in timeline)
            self.queue_pos.setdefault(p, 0)

        base = self.nf
        need = base + len(staged.size)
        for gu, gv, lo, hi in new_edges:
            if hi > lo:
                self.edge_of.extend([len(self.edges)] * (hi - lo))
                self.out_ranges[gu].append((base + lo, base + hi))
                self.flows_left[gv] += hi - lo
            self.edges.append((gu, gv))
        self.size = _grow(self.size, need)
        self.remaining = _grow(self.remaining, need)
        self.done_threshold = _grow(self.done_threshold, need)
        self.pair_of = _grow(self.pair_of, need)
        # growth may reallocate: re-bind the registry's views (and the
        # kernel-side raw addresses cached alongside them)
        self.reg.bind(self.remaining, self.done_threshold, self.pair_of)
        self.lat = _grow(self.lat, need)
        self.src = _grow(self.src, need)
        self.dst = _grow(self.dst, need)
        self.release_time = _grow(self.release_time, need)
        if need > base:
            sizes = np.array(staged.size, dtype=float)
            self.size[base:need] = sizes
            self.remaining[base:need] = sizes
            self.done_threshold[base:need] = np.maximum(
                sizes * _REL_BYTES_EPS, 1e-12)
            # index the pair-latency list per new flow — materialising the
            # whole pair table here would be O(total pairs) per inject
            pl = self.pairs.lat
            self.lat[base:need] = [pl[p] for p in staged.pid]
            self.src[base:need] = staged.src
            self.dst[base:need] = staged.dst
            self.pair_of[base:need] = staged.pid
            self.release_time[base:need] = np.inf
        self.nf = need

        self.total += len(names)
        self.jobs[job_id] = job
        self.check_ready.update(gname.values())
        self._start_ready(at)

    # ------------------------------------------------------------------ #
    # task bookkeeping
    # ------------------------------------------------------------------ #
    # The replayed runtime semantics: a task starts when it is at the
    # front of every processor queue it uses, all its predecessors have
    # finished and all its incoming flows have arrived; an edge's flows
    # release one route latency after the producer finishes.
    def _at_front(self, name: str) -> bool:
        return all(
            self.queue_pos[p] < len(self.proc_queue[p])
            and self.proc_queue[p][self.queue_pos[p]] == name
            for p in self.procs_of[name]
        )

    def _can_start(self, name: str) -> bool:
        return (name not in self.started
                and self.preds_left[name] == 0
                and self.flows_left[name] == 0
                and self._at_front(name))

    def _start_task(self, name: str, now: float) -> None:
        self.started.add(name)
        self.task_start[name] = now
        job = self.job_of_task[name]
        if job.start is None:
            job.start = now
        heapq.heappush(self.finish_heap, (now + self.exec_time[name], name))

    def _finish_task(self, name: str, now: float) -> None:
        self.done_tasks.add(name)
        start = self.task_start[name]
        self.traces[name] = TaskTrace(task=name, procs=self.procs_of[name],
                                      start=start, finish=now)
        if start < self._first_start:
            self._first_start = start
        self._last_finish = now          # the clock never runs backwards
        job = self.job_of_task[name]
        job.n_done += 1
        if job.n_done == job.n_tasks:
            job.completion = now
            self._newly_completed.append(job.job_id)
        for p in self.procs_of[name]:
            self.queue_pos[p] += 1
            pos = self.queue_pos[p]
            if pos < len(self.proc_queue[p]):
                self.check_ready.add(self.proc_queue[p][pos])
        for succ in self.succs[name]:
            self.preds_left[succ] -= 1
            self.check_ready.add(succ)
        for lo, hi in self.out_ranges[name]:
            _push_release(self.release_heap, self.release_time, self.lat,
                          lo, hi, now)

    def _complete_flows(self, fids: list[int], now: float) -> None:
        """Flows ``fids`` (ascending) completed at ``now``."""
        edges = self.edges
        edge_of = self.edge_of
        for eid, n in _edge_counts(fids, edge_of):
            consumer = edges[eid][1]
            self.flows_left[consumer] -= n
            self.check_ready.add(consumer)
        if self.collect_flow_traces:
            for fid in fids:
                self.flow_traces.append(FlowTrace(
                    edge=edges[edge_of[fid]],
                    src=int(self.src[fid]),
                    dst=int(self.dst[fid]),
                    data_bytes=float(self.size[fid]),
                    release=float(self.release_time[fid]),
                    finish=now))

    def _start_ready(self, now: float) -> None:
        """Start every newly startable task, clearing the recheck set."""
        for name in self.check_ready:
            if name not in self.started and self._can_start(name):
                self._start_task(name, now)
        self.check_ready.clear()

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def _run(self, until: float) -> None:
        """Process every pending event at or before ``until`` — all of
        them when ``until`` is infinite.  The clock ends at the last
        event processed; idle gaps cost nothing, since components carry
        their own materialisation times."""
        reg = self.reg
        peek = reg.peek
        begin_event = reg.begin_event
        sweep = reg.sweep
        release_edge = reg.release_edge
        resolve = reg.resolve
        finish_heap = self.finish_heap
        release_heap = self.release_heap
        finish_task = self._finish_task
        complete_flows = self._complete_flows
        start_ready = self._start_ready
        heappop = heapq.heappop
        inf = math.inf
        events = self.events
        # one errstate for the whole loop: projections legitimately
        # divide by zero/inf rates (instantaneous and stalled flows)
        old_err = np.seterr(divide="ignore", invalid="ignore")
        t0 = perf_counter()
        try:
            while True:
                t_next = peek()
                if finish_heap and finish_heap[0][0] < t_next:
                    t_next = finish_heap[0][0]
                if release_heap and release_heap[0][0] < t_next:
                    t_next = release_heap[0][0]
                if not t_next <= until or t_next == inf:
                    break
                self.now = now = t_next
                events += 1
                begin_event()

                # 1) flow completions (component sweep + local flows)
                set_changed = sweep(now, complete_flows)

                # 2) task completions
                while finish_heap and finish_heap[0][0] <= now + _TIME_EPS:
                    finish_task(heappop(finish_heap)[1], now)

                # 3) flow releases, one edge group at a time
                while release_heap and release_heap[0][0] <= now + _TIME_EPS:
                    release_edge(heappop(release_heap)[2], now)
                    set_changed = True

                # 4) newly startable tasks
                start_ready(now)

                # 5) re-solve dirty (lazy) or all live (oracle) components
                if set_changed:
                    resolve(now)
        finally:
            self.events = events
            self._loop_s += perf_counter() - t0
            np.seterr(**old_err)

    # ------------------------------------------------------------------ #
    # public driving interface
    # ------------------------------------------------------------------ #
    def advance_until(self, t: float) -> None:
        """Process every pending event at or before ``t``; the virtual
        clock ends at ``max(now, t)``.  A non-finite ``t`` is rejected:
        the loop would never reach it."""
        if not math.isfinite(t):
            raise ValueError(f"cannot advance to non-finite t={t}")
        if t < self.now - _TIME_EPS:
            raise ValueError(f"cannot rewind from t={self.now} to t={t}")
        self._run(t)
        if t > self.now:
            self.now = t

    def drain(self) -> None:
        """Run the event loop until every injected task has finished."""
        self._drain()

    def _drain(self) -> None:
        self._run(math.inf)
        if not self.idle:  # pragma: no cover - deadlock
            raise RuntimeError(
                f"simulation stalled at t={self.now:g}: "
                f"{self.total - len(self.done_tasks)} tasks never became "
                f"runnable")

    def pop_completed_jobs(self) -> list[str]:
        """Job ids that finished since the last call (completion order)."""
        out = self._newly_completed
        self._newly_completed = []
        return out

    @property
    def idle(self) -> bool:
        return len(self.done_tasks) == self.total

    def makespan(self) -> float:
        """Span from the earliest task start to the latest finish."""
        if not self.traces:
            return 0.0
        return self._last_finish - self._first_start
