"""Property tests: the reference engine's per-flow waterfilling solver
must agree with the reference Max-Min implementation, and degenerate
schedules must not break the simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.maxmin import maxmin_rates
from repro.simulation.reference import _waterfill


@st.composite
def incidence_problems(draw):
    n_links = draw(st.integers(1, 6))
    capacities = np.array([draw(st.floats(0.5, 100.0))
                           for _ in range(n_links)])
    n_flows = draw(st.integers(1, 10))
    routes = [
        draw(st.lists(st.integers(0, n_links - 1), min_size=1, max_size=3,
                      unique=True))
        for _ in range(n_flows)
    ]
    return routes, capacities


def _flatten(routes):
    entry_links = np.array([l for r in routes for l in r], dtype=np.intp)
    entry_flow = np.array(
        [i for i, r in enumerate(routes) for _ in r], dtype=np.intp)
    return entry_links, entry_flow


class TestWaterfillEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(incidence_problems())
    def test_matches_reference_uncapped(self, problem):
        routes, capacities = problem
        entry_links, entry_flow = _flatten(routes)
        caps = np.full(len(routes), np.inf)
        fast = _waterfill(entry_links, entry_flow, len(routes),
                          capacities, caps)
        ref = maxmin_rates([[f"l{l}" for l in r] for r in routes],
                           {f"l{i}": c for i, c in enumerate(capacities)})
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(incidence_problems(), st.floats(0.1, 50.0))
    def test_matches_reference_with_caps(self, problem, cap):
        routes, capacities = problem
        entry_links, entry_flow = _flatten(routes)
        caps = np.full(len(routes), cap)
        fast = _waterfill(entry_links, entry_flow, len(routes),
                          capacities, caps)
        ref = maxmin_rates([[f"l{l}" for l in r] for r in routes],
                           {f"l{i}": c for i, c in enumerate(capacities)},
                           rate_caps=[cap] * len(routes))
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)

    def test_two_flows_one_link(self):
        rates = _waterfill(np.array([0, 0]), np.array([0, 1]), 2,
                           np.array([10.0]), np.full(2, np.inf))
        np.testing.assert_allclose(rates, [5.0, 5.0])

    def test_simultaneous_tied_links(self):
        """Two equal-capacity links each with one flow: both freeze in one
        pass and share nothing."""
        rates = _waterfill(np.array([0, 1]), np.array([0, 1]), 2,
                           np.array([4.0, 4.0]), np.full(2, np.inf))
        np.testing.assert_allclose(rates, [4.0, 4.0])


class TestSimulatorDegenerateCases:
    def test_zero_duration_tasks(self, tiny_cluster):
        """flops=0 tasks execute instantaneously but keep ordering."""
        from repro.dag.task import Task, TaskGraph
        from repro.scheduling.schedule import Schedule, ScheduleEntry
        from repro.simulation.simulator import simulate

        g = TaskGraph(name="zero")
        g.add_task(Task("a", data_elements=0.0, flops=0.0))
        g.add_task(Task("b", data_elements=0.0, flops=0.0))
        g.add_edge("a", "b", data_bytes=0.0)
        s = Schedule(graph=g, cluster=tiny_cluster)
        s.add(ScheduleEntry("a", (0,), 0.0, 0.0))
        s.add(ScheduleEntry("b", (0,), 0.0, 0.0))
        res = simulate(s)
        assert res.makespan == 0.0

    def test_empty_schedule_is_rejected(self, tiny_cluster):
        """No tasks, no makespan: a ValueError up front."""
        from repro.dag.task import TaskGraph
        from repro.scheduling.schedule import Schedule
        from repro.simulation.simulator import simulate

        s = Schedule(graph=TaskGraph(name="empty"), cluster=tiny_cluster)
        with pytest.raises(ValueError, match="no tasks"):
            simulate(s)

    def test_single_task_no_edges(self, tiny_cluster):
        from repro.dag.task import Task, TaskGraph
        from repro.scheduling.schedule import Schedule, ScheduleEntry
        from repro.simulation.simulator import simulate

        g = TaskGraph(name="one")
        g.add_task(Task("only", data_elements=1.0, flops=1e9))
        s = Schedule(graph=g, cluster=tiny_cluster)
        s.add(ScheduleEntry("only", tuple(range(8)), 0.0, 0.125))
        res = simulate(s)
        assert res.makespan == pytest.approx(0.125)

    def test_tiny_transfer_terminates(self, tiny_cluster):
        """1-byte transfers must not spin on float underflow."""
        from conftest import make_chain
        from repro.scheduling.schedule import Schedule, ScheduleEntry
        from repro.simulation.simulator import simulate

        g = make_chain(2, m=1.0 / 8, flops=1e9, alpha=0.0)  # 1 byte edge
        s = Schedule(graph=g, cluster=tiny_cluster)
        s.add(ScheduleEntry("t0", (0,), 0.0, 1.0))
        s.add(ScheduleEntry("t1", (1,), 1.1, 2.1))
        res = simulate(s)
        assert res.events < 100
        assert res.makespan > 2.0
