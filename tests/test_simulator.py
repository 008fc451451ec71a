"""Tests for the fluid simulator: hand-computed cases, invariants and
agreement with the scheduler's estimates in contention-free settings."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.params import NAIVE_TIMECOST
from repro.core.rats import rats_schedule
from repro.platforms.cluster import Cluster
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleEntry
from repro.simulation.simulator import FluidSimulator, _push_release, simulate

from conftest import make_chain, make_diamond


def manual_schedule(graph, cluster, placements) -> Schedule:
    """placements: name -> (procs, start, finish)."""
    s = Schedule(graph=graph, cluster=cluster)
    for name, (procs, start, finish) in placements.items():
        s.add(ScheduleEntry(task=name, procs=procs, start=start,
                            finish=finish))
    return s


class TestSingleTask:
    def test_one_task_runs_for_its_duration(self, tiny_cluster):
        from repro.dag.task import Task, TaskGraph

        g = TaskGraph(name="solo")
        g.add_task(Task("t", data_elements=1e3, flops=2e9, alpha=0.0))
        sched = manual_schedule(g, tiny_cluster, {"t": ((0, 1), 0.0, 1.0)})
        res = simulate(sched)
        assert res.makespan == pytest.approx(1.0)
        assert res.task_traces["t"].start == 0.0


class TestChainTiming:
    def test_same_procs_no_communication(self, tiny_cluster):
        """Two chained tasks on the same ordered set: no transfer at all."""
        g = make_chain(2, m=120e6, flops=1e9, alpha=0.0)
        sched = manual_schedule(g, tiny_cluster, {
            "t0": ((0, 1), 0.0, 0.5),
            "t1": ((0, 1), 0.5, 1.0),
        })
        res = simulate(sched)
        assert res.makespan == pytest.approx(1.0)
        assert res.events > 0 and res.maxmin_solves == 0  # no flows at all

    def test_disjoint_procs_pay_transfer(self, tiny_cluster):
        """1 proc -> 1 other proc: transfer = bytes/beta + latency."""
        m_bytes = 1.25e8  # 1 second at 1 Gb/s
        g = make_chain(2, m=m_bytes / 8, flops=1e9, alpha=0.0)
        sched = manual_schedule(g, tiny_cluster, {
            "t0": ((0,), 0.0, 1.0),
            "t1": ((1,), 2.0, 3.0),
        })
        res = simulate(sched)
        tr = res.task_traces
        expected_start = 1.0 + tiny_cluster.latency_s + 1.0
        assert tr["t1"].start == pytest.approx(expected_start, rel=1e-6)
        assert res.makespan == pytest.approx(expected_start + 1.0, rel=1e-6)

    def test_scatter_transfer_time(self, tiny_cluster):
        """1 -> 4 procs: the sender NIC is the bottleneck; receivers pull
        m/4 each but serially share the sender's 1 Gb/s."""
        m_bytes = 1.25e8
        g = make_chain(2, m=m_bytes / 8, flops=1e9, alpha=0.0)
        sched = manual_schedule(g, tiny_cluster, {
            "t0": ((0,), 0.0, 1.0),
            "t1": ((1, 2, 3, 4), 2.5, 3.0),
        })
        res = simulate(sched)
        # all 4 flows share the sender's NIC: total m_bytes at 1 Gb/s = 1 s
        assert res.task_traces["t1"].start == pytest.approx(
            2.0 + tiny_cluster.latency_s, rel=1e-5)

    def test_partial_overlap_cheaper_than_disjoint(self, tiny_cluster):
        g = make_chain(2, m=120e6, flops=8e9, alpha=0.0)

        def sim_with(procs1):
            sched = manual_schedule(g, tiny_cluster, {
                "t0": ((0, 1), 0.0, 4.0),
                "t1": (procs1, 100.0, 104.0),  # generous estimates
            })
            return simulate(sched).task_traces["t1"].start

        overlap = sim_with((0, 1, 2, 3))
        disjoint = sim_with((4, 5, 6, 7))
        same = sim_with((0, 1))
        # overlapping sets never pay more than disjoint ones; the identical
        # ordered set pays nothing at all
        assert overlap <= disjoint + 1e-9
        assert same == pytest.approx(4.0)  # t0 finish, no transfer
        assert same < disjoint


class TestContention:
    def test_two_transfers_share_receiver_nic(self, tiny_cluster):
        """diamond: left and right both send m to exit on one proc; the
        receiver NIC halves each flow's bandwidth."""
        m_bytes = 1.25e8  # 1 s alone
        g = make_diamond(m=m_bytes / 8, flops=1e9, alpha=0.0)
        sched = manual_schedule(g, tiny_cluster, {
            "entry": ((4,), 0.0, 1.0),
            "left": ((0,), 2.1, 3.1),
            "right": ((1,), 2.1, 3.1),
            "exit": ((2,), 9.9, 10.9),
        })
        res = simulate(sched)
        # entry->left/right: two flows from proc4 share its NIC (2s each);
        # left/right->exit: both finish at the same time, two flows into
        # proc2's NIC: 2 seconds for both.
        tr = res.task_traces
        assert tr["left"].start == pytest.approx(
            1.0 + 2.0 + tiny_cluster.latency_s, rel=1e-4)
        exit_start = tr["exit"].start
        lr_finish = max(tr["left"].finish, tr["right"].finish)
        assert exit_start == pytest.approx(
            lr_finish + 2.0 + tiny_cluster.latency_s, rel=1e-4)

    def test_hierarchical_cabinet_bottleneck(self, hier_cluster):
        """4 senders in cabinet 0 -> 4 receivers in cabinet 1: the shared
        cabinet uplink makes the transfer 4x slower than NIC speed."""
        from repro.dag.task import Task, TaskGraph

        m_bytes = 1.25e8
        g = TaskGraph(name="cab")
        g.add_task(Task("a", data_elements=4 * m_bytes / 8, flops=4e9,
                        alpha=0.0))
        g.add_task(Task("b", data_elements=4 * m_bytes / 8, flops=4e9,
                        alpha=0.0))
        g.add_edge("a", "b")
        sched = manual_schedule(g, hier_cluster, {
            "a": ((0, 1, 2, 3), 0.0, 1.0),
            "b": ((4, 5, 6, 7), 99.0, 100.0),
        })
        res = simulate(sched)
        # 4 x 1Gb/s NICs feed a single 1Gb/s cabinet uplink: 4 x m_bytes
        # through one link = 4 seconds
        assert res.task_traces["b"].start == pytest.approx(
            1.0 + 4.0 + 2 * hier_cluster.latency_s, rel=1e-4)


class TestSimulationInvariants:
    def test_simulated_times_respect_schedule_structure(self, tiny_cluster,
                                                        model, small_random):
        alloc = hcpa_allocation(small_random, model,
                                tiny_cluster.num_procs).allocation
        schedule = ListScheduler(small_random, tiny_cluster, model,
                                 alloc).run()
        res = simulate(schedule)
        executed = res.as_executed_schedule(schedule)
        executed.validate()  # precedence + processor exclusivity hold

    def test_simulated_never_faster_than_estimate(self, tiny_cluster, model,
                                                  small_random):
        """The scheduler's estimate is contention-free, so the simulated
        makespan can only be equal or longer."""
        alloc = hcpa_allocation(small_random, model,
                                tiny_cluster.num_procs).allocation
        schedule = ListScheduler(small_random, tiny_cluster, model,
                                 alloc).run()
        res = simulate(schedule)
        assert res.makespan >= schedule.makespan * (1 - 1e-9)

    def test_durations_preserved(self, tiny_cluster, model, small_random):
        alloc = hcpa_allocation(small_random, model,
                                tiny_cluster.num_procs).allocation
        schedule = ListScheduler(small_random, tiny_cluster, model,
                                 alloc).run()
        res = simulate(schedule)
        for name, tr in res.task_traces.items():
            assert tr.duration == pytest.approx(schedule[name].duration,
                                                rel=1e-9)
            assert tr.procs == schedule[name].procs

    def test_rats_schedule_simulates(self, tiny_cluster, small_random):
        schedule = rats_schedule(small_random, tiny_cluster, NAIVE_TIMECOST)
        res = simulate(schedule)
        assert res.makespan > 0

    def test_flow_traces_collected_on_demand(self, tiny_cluster, model):
        g = make_chain(2, m=1e6, flops=1e9, alpha=0.0)
        sched = manual_schedule(g, tiny_cluster, {
            "t0": ((0,), 0.0, 1.0),
            "t1": ((1,), 5.0, 6.0),
        })
        res_without = simulate(sched)
        assert res_without.flow_traces == []
        res_with = FluidSimulator(sched, collect_flow_traces=True).run()
        assert len(res_with.flow_traces) == 1
        ft = res_with.flow_traces[0]
        assert ft.edge == ("t0", "t1") and ft.src == 0 and ft.dst == 1
        assert ft.finish > ft.release

    def test_event_counts_reported(self, tiny_cluster, model, small_random):
        alloc = hcpa_allocation(small_random, model,
                                tiny_cluster.num_procs).allocation
        schedule = ListScheduler(small_random, tiny_cluster, model,
                                 alloc).run()
        res = simulate(schedule)
        assert res.events > 0
        assert res.maxmin_solves >= 0


class TestEdgeReleaseOrder:
    def test_grouped_entries_pop_in_per_flow_order(self):
        """One heap entry per edge and release instant pops in the
        ``(time, flow id)`` order per-flow entries would: edges with two
        latencies release at two instants, and producers finishing 100 µs
        apart make edges share instants."""
        rng = np.random.default_rng(0)
        n = 200
        lat = rng.choice([1e-4, 2e-4], size=n)
        cuts = sorted(rng.choice(np.arange(1, n), size=19, replace=False))
        heap: list = []
        release_time = np.full(n, np.inf)
        per_flow = []
        for k, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, n])):
            now = (0.0, 1e-4)[k % 2]
            _push_release(heap, release_time, lat, int(lo), int(hi), now)
            per_flow += [(now + lat[f], f) for f in range(lo, hi)]
        per_flow.sort()
        popped = []
        while heap:
            popped += heapq.heappop(heap)[2].tolist()
        assert popped == [f for _, f in per_flow]
        assert {f: release_time[f] for f in range(n)} \
            == {f: t for t, f in per_flow}
