"""Equivalence and regression tests for the lazy component engine (PR 5).

The component-scoped Max-Min maintenance must be indistinguishable from
the eager engines it replaced:

* ``lazy=True`` vs ``lazy=False`` — **byte-identical**: the full-solve
  oracle re-solves every live component at each flow-set change, but the
  extra solves see identical inputs, so every trace float must match
  exactly;
* vs :func:`~repro.simulation.reference.simulate_reference` — the
  per-flow reference engine:
  task traces agree within 1e-9 (event *coalescing* may legitimately
  differ: the reference's global byte-threshold sweep can merge
  completions of *independent* components that land within one another's
  threshold window, e.g. the numerically symmetric halves of a
  ``gcd > 1`` redistribution band — the golden tests pin exact event
  counts on the canonical scenarios where the engines agree).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dag.task import Task, TaskGraph
from repro.experiments.bench import (
    dense_dag_schedule,
    sparse_multicluster_schedule,
)
from repro.experiments.scenarios import Scenario
from repro.platforms.cluster import Cluster
from repro.platforms.grid5000 import CHTI, GRELON
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleEntry
from repro.simulation.reference import simulate_reference
from repro.simulation.simulator import FluidSimulator


def _schedule_for_scenario(scenario: Scenario, cluster):
    graph = scenario.build()
    model = cluster.performance_model()
    alloc = hcpa_allocation(graph, model, cluster.num_procs).allocation
    return ListScheduler(graph, cluster, model, alloc).run()


def _run_all_engines(schedule, **kwargs):
    lazy = FluidSimulator(schedule, lazy=True, **kwargs).run()
    full = FluidSimulator(schedule, lazy=False, **kwargs).run()
    ref = simulate_reference(schedule, **kwargs)
    return lazy, full, ref


def assert_byte_identical(a, b):
    """Lazy and full-solve runs must agree to the last bit."""
    assert a.events == b.events
    assert a.solves_full == b.solves_full
    assert a.makespan == b.makespan
    assert set(a.task_traces) == set(b.task_traces)
    for name, tr in a.task_traces.items():
        other = b.task_traces[name]
        assert tr.procs == other.procs
        assert tr.start == other.start
        assert tr.finish == other.finish
    assert len(a.flow_traces) == len(b.flow_traces)
    for fa, fb in zip(a.flow_traces, b.flow_traces):
        assert (fa.edge, fa.src, fa.dst, fa.data_bytes,
                fa.release, fa.finish) == \
               (fb.edge, fb.src, fb.dst, fb.data_bytes,
                fb.release, fb.finish)


def assert_traces_close(a, ref, rel=1e-9):
    assert set(a.task_traces) == set(ref.task_traces)
    for name, tr in a.task_traces.items():
        other = ref.task_traces[name]
        assert tr.procs == other.procs
        assert tr.start == pytest.approx(other.start, rel=rel, abs=rel)
        assert tr.finish == pytest.approx(other.finish, rel=rel, abs=rel)
    assert a.makespan == pytest.approx(ref.makespan, rel=rel)


class TestEngineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(["layered", "irregular"]),
        n_tasks=st.integers(8, 22),
        width=st.sampled_from([0.2, 0.5, 0.8]),
        density=st.sampled_from([0.2, 0.8]),
        regularity=st.sampled_from([0.2, 0.8]),
        jump=st.sampled_from([1, 2]),
        sample=st.integers(0, 3),
        hierarchical=st.booleans(),
    )
    # regression: same-instant completions used to be delivered in
    # component row order, which pair-row resurrection reshuffles; they
    # must arrive in ascending flow id
    @example(family="irregular", n_tasks=21, width=0.2, density=0.2,
             regularity=0.8, jump=2, sample=0, hierarchical=False)
    def test_lazy_full_reference_agree_on_random_draws(
            self, family, n_tasks, width, density, regularity, jump,
            sample, hierarchical):
        """Random DAG/platform draws: lazy ≡ full (bytes), ≡ ref (1e-9)."""
        scenario = Scenario(family=family, n_tasks=n_tasks, width=width,
                            density=density, regularity=regularity,
                            jump=jump, sample=sample)
        cluster = GRELON if hierarchical else CHTI
        schedule = _schedule_for_scenario(scenario, cluster)
        lazy, full, ref = _run_all_engines(schedule,
                                           collect_flow_traces=True)
        assert_byte_identical(lazy, full)
        assert_traces_close(lazy, ref)
        # event *counts* are not asserted against the reference: a
        # symmetric (gcd > 1) redistribution band splits into numerically
        # twin components whose completions the reference's global
        # byte-threshold sweep coalesces and the per-component sweep
        # orders — same times to 1e-9, different event bookkeeping
        assert lazy.maxmin_solves == lazy.solves_component
        assert ref.maxmin_solves == ref.solves_full

    def test_kernel_families(self):
        """The structured kernels (fft, strassen) through all engines."""
        for scenario in (Scenario(family="fft", k=4, sample=0),
                         Scenario(family="strassen", sample=1)):
            schedule = _schedule_for_scenario(scenario, CHTI)
            lazy, full, ref = _run_all_engines(schedule)
            assert_byte_identical(lazy, full)
            assert_traces_close(lazy, ref)


def scatter_schedule(n_chains: int = 4, chain_len: int = 6,
                     slot: int = 16, wide: int = 9,
                     narrow: int = 5) -> Schedule:
    """One fat root scatters into ``n_chains`` disjoint proc slots.

    ``t0`` runs on every processor, so its four 64→9 redistribution
    bands share every source uplink and merge into a single ~300-row
    component (a ``gcd = 1`` band is one connected block, unlike a
    block-diagonal 64→8 one); staggered scatter sizes then drain it chain
    by chain.  Each chain alternates a 9-proc and a 5-proc task inside
    its own 16-proc slot, so the drained chains never talk to each other
    again.
    """
    procs_all = n_chains * slot
    cluster = Cluster(name="scatter", num_procs=procs_all,
                      speed_flops=1e9)
    graph = TaskGraph(name="scatter")
    graph.add_task(Task(name="t0", data_elements=1e6,
                        flops=procs_all * 1e9, alpha=0.0))
    schedule = Schedule(graph=graph, cluster=cluster)
    d0 = 1.0
    schedule.add(ScheduleEntry(task="t0", procs=tuple(range(procs_all)),
                               start=0.0, finish=d0))
    for k in range(n_chains):
        base = k * slot
        prev, t = "t0", d0
        for i in range(chain_len):
            name = f"c{k}_{i}"
            graph.add_task(Task(name=name, data_elements=1e6,
                                flops=2e8, alpha=0.0))
            size = (4e6 * (1 + 2 * k)) if i == 0 else 24e6
            graph.add_edge(prev, name, data_bytes=size)
            procs = (tuple(range(base, base + wide)) if i % 2 == 0
                     else tuple(range(base + wide, base + wide + narrow)))
            schedule.add(ScheduleEntry(task=name, procs=procs,
                                       start=t, finish=t + 0.2))
            t += 0.2
            prev = name
    schedule.validate()
    return schedule


class TestDrainHeavyScatter:
    def test_default_equals_full_oracle(self):
        """A merged component draining into disjoint blocks."""
        schedule = scatter_schedule()
        lazy = FluidSimulator(schedule, collect_flow_traces=True).run()
        full = FluidSimulator(schedule, lazy=False,
                              collect_flow_traces=True).run()
        assert_byte_identical(lazy, full)


class TestDegenerateSingleComponent:
    def test_saturated_single_cluster_has_no_solve_blowup(self):
        """A dense single-cluster DAG degenerates to ~one component.

        The lazy machinery must then behave like the eager engine: about
        one component solve per flow-set change (never a per-event
        multiple), and identical results.
        """
        schedule = dense_dag_schedule(40)
        lazy = FluidSimulator(schedule, lazy=True).run()
        full = FluidSimulator(schedule, lazy=False).run()
        assert_byte_identical(lazy, full)
        # one comp ⇒ the full oracle performs (almost) no extra solves …
        assert full.solves_component <= 1.05 * lazy.solves_component + 5
        # … and the lazy path performs about one solve per set change
        assert lazy.solves_component <= 1.05 * lazy.solves_full + 5


class TestSparseMulticluster:
    def test_components_decouple_and_engines_agree(self):
        schedule = sparse_multicluster_schedule(n_clusters=4, chain_len=14)
        lazy, full, ref = _run_all_engines(schedule)
        assert_byte_identical(lazy, full)
        assert_traces_close(lazy, ref)
        # the gcd(8,5)=1 band keeps each transfer one component, so even
        # event coalescing matches the reference engine here
        assert lazy.events == ref.events
        # ≥ 2× solve-count reduction over one-solve-per-event …
        assert lazy.solves_component < 0.5 * lazy.events
        # … and a large gap to the full-solve oracle (≈ one live
        # component per cluster)
        assert full.solves_component >= 2 * lazy.solves_component

    def test_bench_scale_ratio(self):
        """The acceptance-criterion numbers at the benchmarked scale."""
        schedule = sparse_multicluster_schedule()
        lazy = FluidSimulator(schedule, lazy=True).run()
        assert lazy.solves_component < 0.5 * lazy.events


class TestSolveCounters:
    def test_reference_counters(self):
        schedule = dense_dag_schedule(16, density=0.5)
        ref = simulate_reference(schedule)
        assert ref.solves_component == 0
        assert ref.solves_full == ref.maxmin_solves > 0

    def test_component_counters(self):
        schedule = dense_dag_schedule(16, density=0.5)
        lazy = FluidSimulator(schedule, lazy=True).run()
        assert lazy.maxmin_solves == lazy.solves_component > 0
        assert lazy.solves_full > 0


class TestRunResultSurface:
    def test_solves_reach_run_results(self):
        from repro.experiments.runner import AlgorithmSpec, ExperimentRunner

        scenario = Scenario(family="layered", n_tasks=10, width=0.5,
                            density=0.8, regularity=0.8, sample=0)
        runner = ExperimentRunner()
        result = runner.run(scenario, CHTI, AlgorithmSpec(label="hcpa"))
        assert result.solves_full > 0
        assert result.solves_component > 0
        # and they serialize through the results-json path
        from repro.scheduling.serialize import results_from_json, results_to_json

        [back] = results_from_json(results_to_json([result]))
        assert back.solves_full == result.solves_full
        assert back.solves_component == result.solves_component

    def test_estimates_only_runs_report_zero_solves(self):
        from repro.experiments.runner import AlgorithmSpec, ExperimentRunner

        scenario = Scenario(family="layered", n_tasks=10, width=0.5,
                            density=0.8, regularity=0.8, sample=0)
        runner = ExperimentRunner(simulate_schedules=False)
        result = runner.run(scenario, CHTI, AlgorithmSpec(label="hcpa"))
        assert result.solves_full == 0
        assert result.solves_component == 0


class TestCompiledKernelParity:
    def test_kernel_matches_numpy_fallback_bitwise(self):
        """When the C kernel compiled, it must equal numpy to the bit."""
        from repro.network import _ckernel, maxmin

        if maxmin._kernel() is None:
            pytest.skip(f"no compiled kernel ({_ckernel.kernel_status})")
        rng = np.random.default_rng(7)
        for _ in range(60):
            n_links = int(rng.integers(2, 12))
            n_b = int(rng.integers(1, 25))
            lens = rng.integers(0, 4, n_b)
            ptr = np.zeros(n_b + 1, dtype=np.intp)
            np.cumsum(lens, out=ptr[1:])
            flat = rng.integers(0, n_links, int(ptr[-1])).astype(np.intp)
            mult = rng.integers(0, 4, n_b).astype(np.intp)
            caps = np.where(rng.random(n_b) < 0.3,
                            rng.uniform(0.1, 50.0, n_b), np.inf)
            capacities = rng.uniform(0.5, 100.0, n_links)
            fast = maxmin.waterfill_bundled(flat, ptr, mult, capacities,
                                            caps)
            saved = maxmin._C_KERNEL
            try:
                maxmin._C_KERNEL = None
                slow = maxmin.waterfill_bundled(flat, ptr, mult,
                                                capacities, caps)
            finally:
                maxmin._C_KERNEL = saved
            np.testing.assert_array_equal(fast, slow)
