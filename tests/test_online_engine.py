"""Online simulator: batch equivalence, determinism, admission."""

import dataclasses
import math
import signal
from contextlib import contextmanager

import pytest

from repro.experiments.runner import AlgorithmSpec
from repro.experiments.scenarios import Scenario
from repro.online.engine import OnlineSimulator
from repro.online.live import LiveFluidEngine
from repro.online.stream import JobArrival, PoissonStream, ReplayStream
from repro.platforms.grid5000 import GRILLON
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.simulation.simulator import simulate

DENSE = Scenario(family="irregular", sample=0, n_tasks=40, width=0.5,
                 regularity=0.8, density=0.8, jump=2)
HCPA = AlgorithmSpec(label="hcpa")


def _batch_schedule(scenario=DENSE):
    graph = scenario.build()
    model = GRILLON.performance_model()
    alloc = hcpa_allocation(graph, model, GRILLON.num_procs).allocation
    return ListScheduler(graph, GRILLON, model, alloc).run()


def _small_stream(n=5, rate=0.05, seed=7):
    return PoissonStream(rate=rate, n_jobs=n, scenarios=[DENSE],
                         spec=HCPA, seed=seed)


class TestBatchEquivalence:
    """All arrivals at t=0 + accept-all reduces exactly to batch."""

    def test_live_engine_t0_injection_is_byte_identical(self):
        sched = _batch_schedule()
        batch = simulate(sched, collect_flow_traces=True)

        eng = LiveFluidEngine(GRILLON, collect_flow_traces=True)
        eng.inject("j0", sched, 0.0)
        eng.drain()

        assert eng.makespan() == batch.makespan
        assert eng.events == batch.events
        stripped = {
            tr.task.split("/", 1)[1]: dataclasses.replace(
                tr, task=tr.task.split("/", 1)[1])
            for tr in eng.traces.values()
        }
        assert stripped == batch.task_traces
        # batch traces carry the schedule's own names, in finish order
        assert list(stripped) == list(batch.task_traces)
        assert set(batch.task_traces) == set(sched.graph.task_names())
        live_flows = [
            dataclasses.replace(fl, edge=(fl.edge[0].split("/", 1)[1],
                                          fl.edge[1].split("/", 1)[1]))
            for fl in eng.flow_traces
        ]
        assert live_flows == batch.flow_traces

    def test_online_pipeline_t0_matches_batch_makespan(self):
        batch = simulate(_batch_schedule())
        sim = OnlineSimulator(GRILLON)
        result = sim.run(ReplayStream([JobArrival("j0", 0.0, DENSE, HCPA)]))
        assert result.makespan == batch.makespan
        assert result.events == batch.events
        rec = result.records[0]
        assert rec.start == 0.0
        assert rec.completion == batch.makespan

    def test_residual_release_all_zero_equals_batch_default(self):
        """An all-zero proc_release seed is literally the batch scheduler."""
        graph = DENSE.build()
        model = GRILLON.performance_model()
        alloc = hcpa_allocation(graph, model, GRILLON.num_procs).allocation
        a = ListScheduler(graph, GRILLON, model, alloc).run()
        b = ListScheduler(graph, GRILLON, model, alloc,
                          proc_release=[0.0] * GRILLON.num_procs).run()
        assert a.entries == b.entries


class TestDeterminism:
    def test_seeded_stream_replays_byte_identical_records(self):
        r1 = OnlineSimulator(GRILLON).run(_small_stream())
        r2 = OnlineSimulator(GRILLON).run(_small_stream())
        assert r1.records == r2.records   # dataclass == is exact floats
        assert r1.events == r2.events
        assert r1.makespan == r2.makespan

    def test_lazy_and_full_solve_agree_online(self):
        lazy = OnlineSimulator(GRILLON, lazy=True).run(_small_stream(n=4))
        full = OnlineSimulator(GRILLON, lazy=False).run(_small_stream(n=4))
        assert lazy.records == full.records
        assert lazy.events == full.events


class TestResidualScheduling:
    def test_overlapping_jobs_queue_behind_each_other(self):
        """A job arriving mid-flight starts no earlier than it could."""
        stream = ReplayStream([JobArrival("a", 0.0, DENSE, HCPA),
                               JobArrival("b", 1.0, DENSE, HCPA)])
        result = OnlineSimulator(GRILLON).run(stream)
        rec_a, rec_b = result.records
        assert rec_a.start == 0.0
        # b was scheduled against a's residual: it cannot start at its
        # arrival because every processor is busy with a
        assert rec_b.start > rec_b.arrival
        assert rec_b.est_makespan is not None and rec_b.est_makespan > 0

    def test_records_report_estimate_vs_actual(self):
        result = OnlineSimulator(GRILLON).run(_small_stream(n=3, rate=2.0))
        for rec in result.records:
            span = rec.completion - rec.start
            assert rec.est_makespan > 0
            # the fluid simulation may run slower than the estimate
            # (contention) but the record carries both for comparison
            assert span > 0


class TestAdmission:
    def test_queue_cap_rejects_overflow(self):
        stream = ReplayStream([JobArrival(f"j{i}", 0.0, DENSE, HCPA)
                               for i in range(5)])
        result = OnlineSimulator(GRILLON,
                                 admission="queue-cap:1").run(stream)
        m = result.metrics
        assert m.n_admitted == 1
        assert m.n_rejected == 4

    def test_rejected_records_are_final_immediately(self):
        sim = OnlineSimulator(GRILLON, admission="queue-cap:1")
        assert sim.submit(JobArrival("j0", 0.0, DENSE, HCPA)) is True
        assert sim.submit(JobArrival("j1", 0.0, DENSE, HCPA)) is False
        rec = sim.records()[0]
        assert rec.job_id == "j1"
        assert rec.admitted is False and not rec.finished

    def test_load_shed_rejects_when_backlogged(self):
        stream = ReplayStream([JobArrival(f"j{i}", 0.0, DENSE, HCPA)
                               for i in range(3)])
        result = OnlineSimulator(GRILLON,
                                 admission="load-shed:0").run(stream)
        assert result.metrics.n_admitted == 1
        assert result.metrics.n_rejected == 2

    def test_slo_attainment_counts_rejections_as_misses(self):
        stream = ReplayStream([JobArrival(f"j{i}", 0.0, DENSE, HCPA)
                               for i in range(2)])
        result = OnlineSimulator(GRILLON, admission="queue-cap:1",
                                 slo=1e9).run(stream)
        assert result.metrics.slo_attainment == pytest.approx(0.5)


class TestAdmissionSpecs:
    def test_spec_strings_parse(self):
        from repro.online.admission import (AcceptAll, LoadShed, QueueCap,
                                            admission_from_spec)

        assert isinstance(admission_from_spec("accept-all"), AcceptAll)
        cap = admission_from_spec("queue-cap:3")
        assert isinstance(cap, QueueCap) and cap.cap == 3
        shed = admission_from_spec("load-shed:2.5")
        assert isinstance(shed, LoadShed) and shed.max_wait == 2.5

    def test_policy_objects_pass_through(self):
        from repro.online.admission import QueueCap, admission_from_spec

        policy = QueueCap(2)
        assert admission_from_spec(policy) is policy

    def test_bad_specs_rejected(self):
        from repro.online.admission import admission_from_spec

        with pytest.raises(ValueError):
            admission_from_spec("queue-cap")
        with pytest.raises(ValueError):
            admission_from_spec("nonsense-policy")
        with pytest.raises(ValueError):
            admission_from_spec("queue-cap:0")


class TestEngineGuards:
    def test_duplicate_job_id_raises(self):
        sim = OnlineSimulator(GRILLON)
        sim.submit(JobArrival("dup", 0.0, DENSE, HCPA))
        with pytest.raises(ValueError, match="duplicate"):
            sim.submit(JobArrival("dup", 0.0, DENSE, HCPA))

    def test_time_cannot_rewind(self):
        eng = LiveFluidEngine(GRILLON)
        eng.advance_until(10.0)
        with pytest.raises(ValueError, match="rewind"):
            eng.advance_until(5.0)
        # non-finite times would spin an idle engine at now=inf forever
        sim = OnlineSimulator(GRILLON)
        sched = _batch_schedule()
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite"):
                eng.advance_until(bad)
            with pytest.raises(ValueError, match="cannot inject"):
                eng.inject("late", sched, bad)
            with pytest.raises(ValueError, match="non-finite"):
                sim.advance_until(bad)
            with pytest.raises(ValueError, match="non-finite"):
                sim.submit(JobArrival("late", bad, DENSE, HCPA))
        assert eng.now == 10.0 and not eng.jobs
        assert sim.engine.now == 0.0 and sim.records() == []
        assert sim.submit(JobArrival("late", 1.0, DENSE, HCPA))

    def test_rejected_inject_leaves_no_state(self):
        """A job mapped on a larger platform is rejected whole: a valid
        job injected next runs exactly as on a fresh engine."""
        from repro.platforms.grid5000 import CHTI

        strassen = Scenario(family="strassen", sample=0, k=2)
        bad = _batch_schedule(strassen)        # mapped on GRILLON
        assert max(p for e in bad.entries.values()
                   for p in e.procs) >= CHTI.num_procs
        graph = strassen.build()
        model = CHTI.performance_model()
        alloc = hcpa_allocation(graph, model, CHTI.num_procs).allocation
        good = ListScheduler(graph, CHTI, model, alloc).run()

        eng = LiveFluidEngine(CHTI, collect_flow_traces=True)
        with pytest.raises(ValueError, match="processor"):
            eng.inject("bad", bad, 0.0)
        assert not eng.jobs and not eng.procs_of and not eng.proc_queue
        eng.inject("good", good, 0.0)
        eng.drain()
        fresh = LiveFluidEngine(CHTI, collect_flow_traces=True)
        fresh.inject("good", good, 0.0)
        fresh.drain()
        assert eng.makespan() == fresh.makespan()
        assert eng.events == fresh.events
        assert eng.traces == fresh.traces
        assert eng.flow_traces == fresh.flow_traces

    def test_failed_submit_leaves_no_job_id(self):
        """A job that fails to schedule can be resubmitted under its id,
        and counts once."""
        sim = OnlineSimulator(GRILLON)
        bad_fft = Scenario(family="fft", sample=0, k=3)   # k not 2^n
        with pytest.raises(ValueError, match="power of two"):
            sim.submit(JobArrival("x", 0.0, bad_fft, HCPA))
        assert sim.records() == [] and not sim.residual_state().in_flight
        assert sim.residual_state().proc_avail == [0.0] * GRILLON.num_procs
        strassen = Scenario(family="strassen", sample=0, k=2)
        assert sim.submit(JobArrival("x", 5.0, strassen, HCPA))
        sim.drain()
        [record] = sim.records()
        assert record.job_id == "x" and record.finished
        assert sim.result().metrics.n_jobs == 1

    def test_empty_schedule_is_rejected(self):
        """A job with no tasks would never finish: inject refuses it
        before touching any state."""
        from repro.dag.task import TaskGraph
        from repro.scheduling.schedule import Schedule

        empty = Schedule(graph=TaskGraph(name="empty"), cluster=GRILLON)
        eng = LiveFluidEngine(GRILLON)
        with pytest.raises(ValueError, match="no tasks"):
            eng.inject("e", empty, 0.0)
        assert not eng.jobs and eng.total == 0 and eng.idle
        eng.inject("e", _batch_schedule(), 0.0)
        eng.drain()
        assert eng.pop_completed_jobs() == ["e"]

    def test_makespan_spans_every_finished_task(self):
        eng = LiveFluidEngine(GRILLON)
        assert eng.makespan() == 0.0
        for job in _small_stream(n=3, rate=0.05):
            eng.advance_until(job.arrival_time)
            eng.inject(job.job_id, _batch_schedule(), job.arrival_time)
        eng.drain()
        traces = eng.traces.values()
        assert eng.makespan() == (max(tr.finish for tr in traces)
                                  - min(tr.start for tr in traces))

    def test_advance_returns_newly_finalised_records(self):
        sim = OnlineSimulator(GRILLON)
        sim.submit(JobArrival("j0", 0.0, DENSE, HCPA))
        assert sim.advance_until(1e-6) == []       # nothing done yet
        done = sim.advance_until(1e9)
        assert [r.job_id for r in done] == ["j0"]
        assert sim.advance_until(2e9) == []        # already reported

    def test_drain_finishes_everything(self):
        sim = OnlineSimulator(GRILLON)
        for job in _small_stream(n=3, rate=1.0):
            sim.submit(job)
        sim.drain()
        assert sim.engine.idle
        assert all(r.finished for r in sim.records())


@contextmanager
def _deadline(seconds: int):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLargeVirtualTimes:
    """A client that stamps arrivals with Unix time sends t ≈ 1.7e9.

    There adjacent floats are ~2e-7 s apart, so a flow whose time left is
    smaller than that reprojects its completion to the current instant.
    The sweep must complete such flows instead of re-popping the
    component forever; JCTs stay within float resolution of t = 0's.
    """

    JOBS = (("strassen", Scenario(family="strassen", sample=0)),
            ("layered", Scenario(family="layered", sample=0, n_tasks=25,
                                 width=0.5, regularity=0.5, density=0.5)))

    def _jcts(self, at: float, lazy: bool) -> dict[str, float]:
        sim = OnlineSimulator(GRILLON, lazy=lazy)
        for job_id, scenario in self.JOBS:
            sim.submit(JobArrival(job_id, at, scenario, HCPA))
        sim.drain()
        return {r.job_id: r.jct for r in sim.records()}

    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "full"])
    @pytest.mark.parametrize("at", [1e9, 1.7e9])
    def test_jobs_at_large_times_drain_like_at_zero(self, at, lazy):
        base = self._jcts(0.0, lazy)
        with _deadline(30):
            late = self._jcts(at, lazy)
        assert late == pytest.approx(base, rel=1e-6)
