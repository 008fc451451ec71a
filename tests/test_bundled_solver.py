"""Property and golden tests for the bundled Max-Min solver (PR 3).

Three solvers must agree on every flow set: the reference
:func:`maxmin_rates` (progressive filling over hashable links), the
reference engine's per-flow :func:`_waterfill`, and the bundled
:func:`maxmin_rates_bundled` / :func:`waterfill_bundled` fast path.  The
golden tests additionally pin the simulator's end-to-end behaviour: the
bundled fast path must reproduce the per-flow reference engine
event-for-event.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.maxmin import (
    maxmin_rates,
    maxmin_rates_bundled,
    waterfill_bundled,
)
from repro.simulation.reference import _waterfill, simulate_reference
from repro.simulation.simulator import FluidSimulator


@st.composite
def shared_route_problems(draw):
    """Flow sets with deliberately shared routes (the bundling case).

    A small pool of distinct routes is sampled first; each flow then
    picks from the pool, so many flows share identical routes.  Empty
    routes (cap-limited local flows) are included.
    """
    n_links = draw(st.integers(1, 6))
    capacities = np.array([draw(st.floats(0.5, 100.0))
                           for _ in range(n_links)])
    n_routes = draw(st.integers(1, 4))
    pool = [
        draw(st.lists(st.integers(0, n_links - 1), min_size=0, max_size=3,
                      unique=True))
        for _ in range(n_routes)
    ]
    n_flows = draw(st.integers(1, 12))
    routes = [pool[draw(st.integers(0, n_routes - 1))]
              for _ in range(n_flows)]
    caps = np.array([
        draw(st.one_of(st.just(float("inf")), st.floats(0.1, 50.0)))
        for _ in range(n_flows)
    ])
    return routes, capacities, caps


def _reference_rates(routes, capacities, caps):
    named = [[f"l{li}" for li in r] for r in routes]
    cap_map = {f"l{i}": c for i, c in enumerate(capacities)}
    return maxmin_rates(named, cap_map, rate_caps=list(caps))


class TestBundledSolverEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(shared_route_problems())
    def test_bundled_matches_reference(self, problem):
        routes, capacities, caps = problem
        fast = maxmin_rates_bundled(routes, capacities, caps)
        ref = _reference_rates(routes, capacities, caps)
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(shared_route_problems())
    def test_bundled_matches_waterfill(self, problem):
        """waterfill_bundled over singleton bundles ≡ per-flow _waterfill."""
        routes, capacities, caps = problem
        nonempty = [(i, r) for i, r in enumerate(routes) if r]
        entry_links = np.array([li for _, r in nonempty for li in r],
                               dtype=np.intp)
        entry_flow = np.array([i for i, (_, r) in enumerate(nonempty)
                               for _ in r], dtype=np.intp)
        sub_caps = np.array([caps[i] for i, _ in nonempty])
        ref = _waterfill(entry_links, entry_flow, len(nonempty),
                         capacities, sub_caps)

        lengths = np.array([len(r) for _, r in nonempty], dtype=np.intp)
        ptr = np.zeros(len(nonempty) + 1, dtype=np.intp)
        np.cumsum(lengths, out=ptr[1:])
        fast = waterfill_bundled(entry_links, ptr,
                                 np.ones(len(nonempty), dtype=np.intp),
                                 capacities, sub_caps)
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)

    def test_multiplicity_equals_expansion(self):
        """One bundle of m flows ≡ m explicit flows on the same route."""
        capacities = np.array([12.0, 8.0])
        for m in (1, 2, 5):
            bundled = waterfill_bundled(
                np.array([0, 1], dtype=np.intp),
                np.array([0, 2], dtype=np.intp),
                np.array([m], dtype=np.intp),
                capacities, np.array([np.inf]))
            expanded = maxmin_rates([["a", "b"]] * m,
                                    {"a": 12.0, "b": 8.0})
            np.testing.assert_allclose(np.repeat(bundled, m), expanded,
                                       rtol=1e-12)

    def test_zero_multiplicity_bundles_are_ignored(self):
        """Dead bundles (multiplicity 0) neither consume nor constrain."""
        rates = waterfill_bundled(
            np.array([0, 0], dtype=np.intp),
            np.array([0, 1, 2], dtype=np.intp),
            np.array([0, 3], dtype=np.intp),
            np.array([9.0]), np.array([np.inf, np.inf]))
        np.testing.assert_allclose(rates[1], 3.0)

    def test_empty_route_is_cap_limited(self):
        rates = maxmin_rates_bundled([[], [0]], np.array([10.0]),
                                     np.array([4.0, np.inf]))
        np.testing.assert_allclose(rates, [4.0, 10.0])

    def test_no_flows(self):
        assert len(maxmin_rates_bundled([], np.array([1.0]))) == 0

    def test_cap_fix_uses_csr_offsets(self):
        """Capped flows on overlapping CSR routes freeze at their caps."""
        capacities = np.array([10.0, 10.0, 10.0])
        routes = [[0, 1], [1, 2], [0, 2], [1]]
        caps = np.array([1.0, 2.0, np.inf, np.inf])
        got = maxmin_rates_bundled(routes, capacities, caps)
        ref = _reference_rates(routes, capacities, caps)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestIndexedKernelParity:
    """The kernel loaders honour the kill switch and load together."""

    def test_kill_switch_disables_indexed_kernel(self, monkeypatch):
        from repro.network import _ckernel

        monkeypatch.setenv("REPRO_NO_C_KERNEL", "1")
        assert _ckernel.load_kernel() is None
        assert "REPRO_NO_C_KERNEL" in _ckernel.kernel_status

    def test_warm_reports_kernel_availability(self):
        from repro.network import _ckernel

        status = _ckernel.warm()
        assert set(status) == {"waterfill", "waterfill_batch",
                               "sweep_comp", "status"}
        # every entry point lives in the one shared object, so they are
        # all available or none is — the batch and sweep kernels must
        # precompile exactly when the original waterfill kernel does
        assert status["waterfill"] == status["waterfill_batch"]
        assert status["waterfill"] == status["sweep_comp"]

    def test_kill_switch_disables_batch_kernels(self, monkeypatch):
        from repro.network import _ckernel

        monkeypatch.setenv("REPRO_NO_C_KERNEL", "1")
        assert _ckernel.load_batch_kernel() is None
        assert _ckernel.load_sweep_kernel() is None


# ------------------------------------------------------------------ #
# golden simulator tests
# ------------------------------------------------------------------ #
def _schedule_for(n_tasks: int, density: float = 0.8):
    # the canonical bench workload: golden values below pin *its* output
    from repro.experiments.bench import dense_dag_schedule

    return dense_dag_schedule(n_tasks, density=density)


class TestGoldenSimulation:
    def test_bundled_equals_reference_path(self):
        """The fast path must replay the reference path event-for-event."""
        schedule = _schedule_for(40)
        ref = simulate_reference(schedule)
        fast = FluidSimulator(schedule).run()
        assert fast.events == ref.events
        # the component engine performs component-scoped solves, but the
        # set-change events (what an eager engine solves at) must agree
        assert fast.solves_full == ref.solves_full == ref.maxmin_solves
        assert fast.solves_component > 0
        assert fast.makespan == pytest.approx(ref.makespan, rel=1e-9)
        assert set(fast.task_traces) == set(ref.task_traces)
        for name, tr in ref.task_traces.items():
            ft = fast.task_traces[name]
            assert ft.procs == tr.procs
            assert ft.start == pytest.approx(tr.start, rel=1e-9, abs=1e-9)
            assert ft.finish == pytest.approx(tr.finish, rel=1e-9, abs=1e-9)

    def test_dense_dag_golden_makespan(self):
        """Pin simulate() on the dense-DAG bench scenario (PR-3 golden).

        The constants were recorded from the pre-optimization simulator
        (seed revision) on the `bench_substrate_perf` scenario; any drift
        means the fluid model's numbers changed, which this PR promised
        not to do.
        """
        golden_makespan = 166.10181117309952
        golden_events = 2903
        res = FluidSimulator(_schedule_for(100)).run()
        assert res.makespan == pytest.approx(golden_makespan, rel=1e-9)
        assert res.events == golden_events
