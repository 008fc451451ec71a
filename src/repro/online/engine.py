"""The online simulator: admit → schedule → inject, per arrival.

:class:`OnlineSimulator` turns the batch two-step pipeline into an
open-system loop over a :class:`~repro.online.stream.JobStream`:

1. **advance** the live fluid engine to the job's arrival time
   (in-flight flows progress, tasks finish, completed jobs retire);
2. **admit** — the pluggable :mod:`~repro.online.admission` policy sees
   the arrival and the residual platform state;
3. **schedule** — the job's own two-step pipeline (allocator from
   :data:`repro.registry.allocators`, then list/RATS mapping through
   :data:`repro.registry.schedulers`) runs against the *residual*
   processor availability via the schedulers' ``proc_release`` seed, so
   the mapping prices queueing behind earlier jobs instead of assuming
   an empty platform;
4. **inject** the scheduled job into the
   :class:`~repro.online.live.LiveFluidEngine` — its flows join the live
   component registry and only touched components re-solve.

With every arrival at t=0 and accept-all admission, steps 3–4 reduce
exactly to the batch pipeline (an all-zero ``proc_release`` is the batch
default; injection into an empty engine is the batch prime), which is the
bridge behind the t=0 byte-equivalence test.

Residual availability is the *scheduler's estimated* finish per
processor — the same quantity batch list scheduling tracks in
``proc_avail`` — not the simulated one: the online scheduler plans with
the information a real runtime has at admission time, and the gap between
plan and fluid-simulated reality surfaces per job as
``JobRecord.est_makespan`` vs actual span (§IV-D, per job).

Arrivals are processed one at a time, in submission order, on the
caller's thread.  Every time input (arrival times, ``advance_until``
targets) must be finite; the engine rejects the rest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from repro.experiments.runner import ExperimentRunner
from repro.online.admission import AdmissionPolicy, admission_from_spec
from repro.online.live import LiveFluidEngine
from repro.online.metrics import JobRecord, OnlineMetrics
from repro.online.stream import JobArrival, JobStream
from repro.registry import schedulers
from repro.scheduling.avail import AvailabilityIndex
from repro.scheduling.schedule import Schedule

__all__ = ["OnlineSimulator", "OnlineResult", "ResidualState"]


@dataclass
class ResidualState:
    """What admission and scheduling see of the platform at one instant."""

    now: float
    proc_avail: list[float]      # estimated earliest availability per proc
    in_flight: set[str]          # admitted job ids not yet completed


@dataclass
class OnlineResult:
    """Outcome of driving one stream through the online simulator."""

    records: list[JobRecord]
    metrics: OnlineMetrics
    makespan: float              # span of all executed tasks
    events: int
    solves_full: int
    solves_component: int
    sched_s: float = 0.0         # wall time spent in two-step scheduling
    sim_s: float = 0.0           # wall time spent advancing the engine
    solve_s: float = 0.0         # sim_s share spent in Max-Min solves
    event_s: float = 0.0         # sim_s share spent in the event loop

    @property
    def n_jobs(self) -> int:
        return len(self.records)


@dataclass
class _PendingJob:
    arrival: JobArrival
    est_makespan: float


class OnlineSimulator:
    """Drive arrivals through admit → residual schedule → live injection.

    Parameters
    ----------
    platform:
        The shared cluster or multi-cluster platform.
    admission:
        An :class:`~repro.online.admission.AdmissionPolicy` or its spec
        string (``"accept-all"``, ``"queue-cap:N"``,
        ``"load-shed:SECONDS"``).
    slo:
        JCT threshold (seconds) for the attainment roll-up, optional.
    lazy / collect_flow_traces:
        Forwarded to the :class:`~repro.online.live.LiveFluidEngine`.
    avail_index:
        Keep one warm :class:`~repro.scheduling.avail.AvailabilityIndex`
        alive *across* arrivals (default).  Each job's scheduler reseeds
        it to the clamped residual view instead of re-sorting 24k
        processors from scratch; schedules are byte-identical either
        way.  ``False`` hands every job the reference scan path.
    """

    def __init__(self, platform, *,
                 admission: AdmissionPolicy | str = "accept-all",
                 slo: float | None = None,
                 lazy: bool = True,
                 collect_flow_traces: bool = False,
                 avail_index: bool = True) -> None:
        self.platform = platform
        self.admission = admission_from_spec(admission)
        self.slo = slo
        self._avail_index = (AvailabilityIndex.for_platform(platform)
                             if avail_index else None)
        self.engine = LiveFluidEngine(platform, lazy=lazy,
                                      collect_flow_traces=collect_flow_traces)
        # graph / allocation / redistribution caches, shared across jobs
        # exactly as a campaign runner shares them across cells
        self._pipeline = ExperimentRunner(simulate_schedules=False,
                                          record_timings=False)
        self._proc_avail: list[float] = [0.0] * platform.num_procs
        self._in_flight: set[str] = set()
        self._pending: dict[str, _PendingJob] = {}
        self._order: list[str] = []                  # arrival order
        self._records: dict[str, JobRecord] = {}
        self.sched_s = 0.0
        self.sim_s = 0.0

    # ------------------------------------------------------------------ #
    def residual_state(self) -> ResidualState:
        return ResidualState(now=self.engine.now,
                             proc_avail=list(self._proc_avail),
                             in_flight=set(self._in_flight))

    def _sync_completions(self) -> None:
        """Fold engine-side job completions into final records."""
        for job_id in self.engine.pop_completed_jobs():
            pending = self._pending.pop(job_id)
            state = self.engine.jobs[job_id]
            self._in_flight.discard(job_id)
            self._records[job_id] = JobRecord(
                job_id=job_id,
                scenario=pending.arrival.scenario.scenario_id,
                algorithm=pending.arrival.spec.label,
                arrival=pending.arrival.arrival_time,
                admitted=True,
                start=state.start,
                completion=state.completion,
                est_makespan=pending.est_makespan,
            )

    def _schedule_job(self, job: JobArrival) -> Schedule:
        """The batch two-step pipeline, seeded with residual availability."""
        t0 = time.perf_counter()
        platform = self.platform
        scenario, spec = job.scenario, job.spec
        graph = self._pipeline.graph_for(scenario)
        model = platform.performance_model()
        redist = self._pipeline.redist_for(platform)
        allocation = self._pipeline.allocation_for(scenario, platform,
                                                   spec.allocator)

        now = self.engine.now
        release = [max(now, t) for t in self._proc_avail]
        avail_index = (self._avail_index if self._avail_index is not None
                       else False)
        kind = getattr(platform, "scheduler_kind", "single")
        prefix = "" if kind == "single" else f"{kind}-"
        if spec.is_adaptive:
            params = spec.resolve_params(platform.name, scenario.family)
            assert params is not None
            scheduler = schedulers.build(
                f"{prefix}rats", graph, platform, model, allocation,
                params=params, redist=redist, proc_release=release,
                avail_index=avail_index)
        else:
            scheduler = schedulers.build(
                f"{prefix}list", graph, platform, model, allocation,
                redist=redist, proc_release=release,
                avail_index=avail_index)
        schedule = scheduler.run()
        self.sched_s += time.perf_counter() - t0
        return schedule

    def _advance_engine(self, t: float) -> None:
        t0 = time.perf_counter()
        self.engine.advance_until(t)
        self.sim_s += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    def submit(self, job: JobArrival) -> bool:
        """Advance to the job's arrival, then admit/schedule/inject.

        Returns whether the job was admitted; a rejected job's record is
        final immediately.  A duplicate id or a non-finite or rewinding
        arrival time raises :class:`ValueError` before any state changes.
        A job that fails to schedule or inject leaves no trace of its id
        (the engine has only advanced to its arrival), so it can be
        resubmitted.
        """
        if job.job_id in self._records or job.job_id in self._pending:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self._advance_engine(job.arrival_time)
        self._sync_completions()
        if not self.admission.admit(job, self.residual_state()):
            self._order.append(job.job_id)
            self._records[job.job_id] = JobRecord(
                job_id=job.job_id,
                scenario=job.scenario.scenario_id,
                algorithm=job.spec.label,
                arrival=job.arrival_time,
                admitted=False,
            )
            return False
        schedule = self._schedule_job(job)
        self.engine.inject(job.job_id, schedule, job.arrival_time)
        self._order.append(job.job_id)
        for entry in schedule.entries.values():
            for p in entry.procs:
                if entry.finish > self._proc_avail[p]:
                    self._proc_avail[p] = entry.finish
        self._pending[job.job_id] = _PendingJob(
            arrival=job, est_makespan=schedule.makespan)
        self._in_flight.add(job.job_id)
        return True

    def advance_until(self, t: float) -> list[JobRecord]:
        """Run the engine to ``t``; returns records newly finalised.

        A non-finite or rewinding ``t`` raises :class:`ValueError`.
        """
        before = set(self._records)
        self._advance_engine(t)
        self._sync_completions()
        return [self._records[j] for j in self._order
                if j in self._records and j not in before]

    def drain(self) -> None:
        """Run every admitted job to completion."""
        t0 = time.perf_counter()
        self.engine.drain()
        self.sim_s += time.perf_counter() - t0
        self._sync_completions()

    # ------------------------------------------------------------------ #
    def run(self, stream: JobStream | Iterable[JobArrival], *,
            drain: bool = True) -> OnlineResult:
        """Drive a whole stream; returns records in arrival order."""
        for job in stream:
            self.submit(job)
        if drain:
            self.drain()
        return self.result()

    def records(self) -> list[JobRecord]:
        """Records finalised so far, in arrival order."""
        return [self._records[j] for j in self._order if j in self._records]

    def result(self) -> OnlineResult:
        """Roll up the records finalised so far (arrival order)."""
        records = self.records()
        return OnlineResult(
            records=records,
            metrics=OnlineMetrics.from_records(records, slo=self.slo),
            makespan=self.engine.makespan(),
            events=self.engine.events,
            solves_full=self.engine.solves_full,
            solves_component=self.engine.solves_component,
            sched_s=self.sched_s,
            sim_s=self.sim_s,
            solve_s=self.engine.solve_s,
            event_s=self.engine.event_s,
        )
