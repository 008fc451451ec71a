"""Tests for CPA / HCPA / MCPA allocation procedures and bounds.

``_reference_cpa_core`` below is the plain CPA loop: it re-walks every
bottom and top level and rescans every task after each grant.  It is
the oracle the incremental production loop must match field for field.  ``golden/allocations.json`` pins the
HCPA (and, on grillon, CPA and MCPA) allocations of the benchmark's
paper-campaign shapes; regenerate it with
``python tests/test_allocation.py`` after an intentional change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.analysis import dag_levels
from repro.dag.generator import (
    DagShape,
    random_irregular_dag,
    random_layered_dag,
)
from repro.dag.task import TaskGraph
from repro.experiments.scenarios import Scenario
from repro.model.amdahl import PerformanceModel
from repro.platforms.grid5000 import CHTI, GRELON, GRILLON
from repro.scheduling.allocation import (
    _TOL,
    AllocationResult,
    cpa_allocation,
    hcpa_allocation,
    mcpa_allocation,
)
from repro.scheduling.bounds import (
    average_area,
    critical_path_bound,
    effective_processor_count,
)
from repro.utils.rng import spawn_rng

from conftest import make_chain, make_diamond

GOLDEN = Path(__file__).parent / "golden" / "allocations.json"


class TestBounds:
    def test_cp_bound_chain(self, model):
        g = make_chain(3, flops=1e9, alpha=0.0)  # 1s sequential each
        alloc = {n: 1 for n in g.task_names()}
        assert critical_path_bound(g, model, alloc) == pytest.approx(3.0)

    def test_cp_bound_shrinks_with_allocation(self, model):
        g = make_chain(3, flops=1e9, alpha=0.0)
        one = {n: 1 for n in g.task_names()}
        four = {n: 4 for n in g.task_names()}
        assert critical_path_bound(g, model, four) == pytest.approx(
            critical_path_bound(g, model, one) / 4)

    def test_average_area(self, model):
        g = make_diamond(flops=1e9, alpha=0.0)  # 4 tasks x 1s work
        alloc = {n: 1 for n in g.task_names()}
        assert average_area(g, model, alloc, total_procs=8) == pytest.approx(0.5)

    def test_effective_processor_policies(self):
        g = make_diamond()
        assert effective_processor_count(g, 100, "total") == 100
        assert effective_processor_count(g, 100, "ntasks") == 4
        assert effective_processor_count(g, 100, "width") == 2
        assert effective_processor_count(g, 3, "ntasks") == 3

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            effective_processor_count(make_diamond(), 4, "bogus")


class TestCPAAllocation:
    def test_stops_at_tradeoff(self, tiny_cluster, model):
        g = make_chain(4, flops=4e9, alpha=0.05)
        res = cpa_allocation(g, model, tiny_cluster.num_procs)
        assert res.converged
        assert res.cp_length <= res.avg_area + 1e-6

    def test_allocations_within_bounds(self, model):
        g = make_diamond(flops=8e9, alpha=0.1)
        res = cpa_allocation(g, model, 8)
        assert all(1 <= n <= 8 for n in res.allocation.values())

    def test_chain_gets_everything_it_needs(self, model):
        """On a pure chain with alpha=0, W̄ = total/P stays below C∞ until
        tasks are heavily parallelised."""
        g = make_chain(3, flops=8e9, alpha=0.0)
        res = cpa_allocation(g, model, 8)
        assert res.converged
        # chain: every task on the critical path, allocations grow
        assert all(n > 1 for n in res.allocation.values())

    def test_trace_records_growth(self, model):
        g = make_diamond(flops=8e9, alpha=0.1)
        res = cpa_allocation(g, model, 8, keep_trace=True)
        assert len(res.trace) == res.iterations

    def test_max_iterations_cap(self, model):
        g = make_chain(3, flops=8e9, alpha=0.0)
        res = cpa_allocation(g, model, 8, max_iterations=2)
        assert res.iterations == 2
        assert not res.converged

    def test_single_proc_cluster_trivial(self, model):
        g = make_diamond()
        res = cpa_allocation(g, model, 1)
        assert all(n == 1 for n in res.allocation.values())


class TestHCPAAllocation:
    def test_hcpa_never_allocates_more_than_cpa(self, model):
        """The bias fix can only raise W̄, so HCPA stops no later than CPA
        in total processors granted."""
        g = make_diamond(flops=50e9, alpha=0.02)
        cpa = cpa_allocation(g, model, 8)
        hcpa = hcpa_allocation(g, model, 8)
        assert hcpa.total_procs_allocated() <= cpa.total_procs_allocated()

    def test_equal_when_procs_below_ntasks(self, model):
        """P <= N makes min(P, N) = P: HCPA degenerates to CPA."""
        g = make_diamond(flops=20e9, alpha=0.05)  # 4 tasks >= 4 procs? use P=4
        cpa = cpa_allocation(g, model, 4)
        hcpa = hcpa_allocation(g, model, 4)
        assert cpa.allocation == hcpa.allocation

    def test_large_cluster_bias_fix(self, model, small_random):
        """On a 120-proc cluster with 25 tasks, HCPA must allocate far less
        total work than CPA (the §II-C motivation)."""
        cpa = cpa_allocation(small_random, model, 120)
        hcpa = hcpa_allocation(small_random, model, 120)
        assert hcpa.total_procs_allocated() < cpa.total_procs_allocated()

    def test_area_policy_override(self, model):
        g = make_diamond(flops=20e9, alpha=0.05)
        res = hcpa_allocation(g, model, 8, area_policy="width")
        assert all(1 <= n <= 8 for n in res.allocation.values())


class TestMCPAAllocation:
    def test_level_budget_respected(self, model, small_random):
        res = mcpa_allocation(small_random, model, 8)
        levels = dag_levels(small_random)
        per_level: dict[int, int] = {}
        for name, n in res.allocation.items():
            per_level[levels[name]] = per_level.get(levels[name], 0) + n
        assert all(total <= 8 for total in per_level.values())

    def test_wide_level_limits_growth(self, model):
        """A 6-task level on 8 procs leaves at most 2 spare increments."""
        from repro.dag.task import Task, TaskGraph

        g = TaskGraph(name="wide")
        g.add_task(Task("src", data_elements=1e6, flops=1e9, alpha=0.0))
        for i in range(6):
            g.add_task(Task(f"mid{i}", data_elements=1e6, flops=50e9, alpha=0.0))
            g.add_edge("src", f"mid{i}")
        g.add_task(Task("sink", data_elements=1e6, flops=1e9, alpha=0.0))
        for i in range(6):
            g.add_edge(f"mid{i}", "sink")

        res = mcpa_allocation(g, model, 8)
        mid_total = sum(res.allocation[f"mid{i}"] for i in range(6))
        assert mid_total <= 8

    def test_invalid_total_procs(self, model):
        with pytest.raises(ValueError):
            mcpa_allocation(make_diamond(), model, 0)


class TestDynamicEdgeTime:
    def test_edge_time_reevaluated_every_iteration(self, model):
        """A user edge_time callable may read evolving state: the flattened
        loop must re-evaluate it per grant, like the pre-flattening code."""
        g = make_diamond()
        n_edges = len(list(g.edges()))
        calls = []

        def edge_time(u, v):
            calls.append((u, v))
            return 0.001

        res = hcpa_allocation(g, model, 8, edge_time=edge_time)
        assert res.iterations > 0
        # initial fill + once per completed loop iteration (bl/tl share
        # one evaluation per edge)
        assert len(calls) >= n_edges * (res.iterations + 1)

    def test_static_edge_time_matches_none_shape(self, model):
        """edge_time=lambda: 0 must reproduce edge_time=None exactly."""
        g = make_diamond()
        a = hcpa_allocation(g, model, 8)
        b = hcpa_allocation(g, model, 8, edge_time=lambda u, v: 0.0)
        assert a.allocation == b.allocation
        assert a.iterations == b.iterations
        assert a.cp_length == b.cp_length


# --------------------------------------------------------------------- #
# the oracle: the full re-walk CPA loop
# --------------------------------------------------------------------- #
def _reference_cpa_core(
    graph: TaskGraph,
    model: PerformanceModel,
    total_procs: int,
    *,
    area_policy: str,
    level_cap: bool,
    edge_time: Callable[[str, str], float] | None = None,
    max_iterations: int | None = None,
    keep_trace: bool = False,
) -> AllocationResult:
    if total_procs < 1:
        raise ValueError("total_procs must be >= 1")
    names = graph.task_names()
    n_tasks = len(names)
    index = {n: i for i, n in enumerate(names)}
    alloc = [1] * n_tasks
    levels = dag_levels(graph) if level_cap else None
    level_of: list[int] | None = None
    level_used: dict[int, int] = {}
    if levels is not None:
        level_of = [levels[n] for n in names]
        for n, lvl in levels.items():
            level_used[lvl] = level_used.get(lvl, 0) + 1  # 1 proc per task

    topo = [index[n] for n in graph.topological_order()]
    preds: list[list[int]] = [[] for _ in range(n_tasks)]
    succs: list[list[int]] = [[] for _ in range(n_tasks)]
    pred_cost: list[list[float]] = [[] for _ in range(n_tasks)]
    succ_cost: list[list[float]] = [[] for _ in range(n_tasks)]

    def fill_edge_costs() -> None:
        for i, n in enumerate(names):
            sc = succ_cost[i]
            sc.clear()
            for s in graph.successors(n):
                sc.append(edge_time(n, s) if edge_time is not None else 0.0)
        for j in range(n_tasks):
            pc = pred_cost[j]
            pc.clear()
            for k, i in enumerate(preds[j]):
                pc.append(succ_cost[i][succs[i].index(j)])

    for i, n in enumerate(names):
        for s in graph.successors(n):
            j = index[s]
            succs[i].append(j)
            preds[j].append(i)
    fill_edge_costs()
    entries = [index[n] for n in graph.entry_tasks()]
    tasks = [graph.task(n) for n in names]

    cur_time = [model.time(t, 1) for t in tasks]
    next_time = [model.time(t, 2) if total_procs > 1 else 0.0 for t in tasks]

    p_eff = effective_processor_count(graph, total_procs, area_policy)
    total_work = sum(model.work(t, 1) for t in tasks)
    if max_iterations is None:
        max_iterations = n_tasks * total_procs

    trace: list[tuple[str, int]] = []
    iterations = 0
    cp_len = 0.0
    area = 0.0
    converged = False
    bl = [0.0] * n_tasks
    tl = [0.0] * n_tasks

    def can_grow(i: int) -> bool:
        if alloc[i] >= total_procs:
            return False
        if level_of is not None and level_used[level_of[i]] + 1 > total_procs:
            return False
        return True

    while iterations < max_iterations:
        if edge_time is not None and iterations:
            fill_edge_costs()
        for i in reversed(topo):
            tail = 0.0
            for j, c in zip(succs[i], succ_cost[i]):
                v = c + bl[j]
                if v > tail:
                    tail = v
            bl[i] = cur_time[i] + tail
        for i in topo:
            top = 0.0
            for j, c in zip(preds[i], pred_cost[i]):
                v = tl[j] + cur_time[j] + c
                if v > top:
                    top = v
            tl[i] = top
        cp_len = max((bl[e] for e in entries), default=0.0)
        area = total_work / p_eff
        if cp_len <= area + _TOL:
            converged = True
            break

        threshold = cp_len - _TOL * max(1.0, cp_len)
        candidates = [i for i in range(n_tasks)
                      if tl[i] + bl[i] >= threshold and can_grow(i)]
        if not candidates:
            break

        best = max(candidates,
                   key=lambda i: (cur_time[i] - next_time[i], cur_time[i],
                                  names[i]))
        t = tasks[best]
        total_work += model.work(t, alloc[best] + 1) - model.work(t, alloc[best])
        alloc[best] += 1
        if level_of is not None:
            level_used[level_of[best]] += 1
        cur_time[best] = next_time[best]
        next_time[best] = (model.time(t, alloc[best] + 1)
                           if alloc[best] < total_procs else 0.0)
        if keep_trace:
            trace.append((names[best], alloc[best]))
        iterations += 1

    return AllocationResult(
        allocation={n: alloc[i] for i, n in enumerate(names)},
        iterations=iterations,
        cp_length=cp_len,
        avg_area=area,
        converged=converged,
        trace=trace,
    )


#: the allocators under test, with the oracle arguments each one implies
POLICIES = {
    "cpa": (cpa_allocation, {"area_policy": "total", "level_cap": False}),
    "hcpa": (hcpa_allocation, {"area_policy": "ntasks", "level_cap": False}),
    "mcpa": (mcpa_allocation, {"area_policy": "total", "level_cap": True}),
}


def _result_fields(res: AllocationResult) -> tuple:
    return (res.allocation, res.iterations, res.cp_length, res.avg_area,
            res.converged, res.trace)


class TestIncrementalMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(["layered", "irregular"]),
        n_tasks=st.integers(3, 40),
        width=st.sampled_from([0.2, 0.5, 0.8]),
        density=st.sampled_from([0.2, 0.8]),
        regularity=st.sampled_from([0.2, 0.8]),
        jump=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10 ** 6),
        cluster=st.sampled_from([CHTI, GRILLON, GRELON]),
        procs=st.one_of(st.sampled_from([1, 2, None]), st.integers(3, 9)),
        policy=st.sampled_from(sorted(POLICIES)),
        edge_scale=st.sampled_from([None, 1e-9, 1e-8]),
        max_iterations=st.sampled_from([None, None, None, 7]),
    )
    def test_every_field_equals_the_full_rewalk(
            self, family, n_tasks, width, density, regularity, jump, seed,
            cluster, procs, policy, edge_scale, max_iterations):
        """Random DAGs, processor counts, policies and static edge costs:
        the incremental loop returns exactly the oracle's result."""
        shape = DagShape(n_tasks=n_tasks, width=width, density=density,
                         regularity=regularity, jump=jump)
        build = (random_layered_dag if family == "layered"
                 else random_irregular_dag)
        graph = build(shape, spawn_rng("alloc-oracle", seed))
        model = cluster.performance_model()
        total = cluster.num_procs if procs is None else procs
        edge_time = None
        if edge_scale is not None:
            cost = {(u, v): d * edge_scale for u, v, d in graph.edges()}

            def edge_time(u, v):
                return cost[u, v]

        allocate, core_args = POLICIES[policy]
        got = allocate(graph, model, total, edge_time=edge_time,
                       max_iterations=max_iterations, keep_trace=True)
        want = _reference_cpa_core(graph, model, total, edge_time=edge_time,
                                   max_iterations=max_iterations,
                                   keep_trace=True, **core_args)
        assert _result_fields(got) == _result_fields(want)

    def test_stateful_edge_time_sees_the_same_calls(self, model):
        """A user edge_time is called in the same sequence, so a callable
        that reads evolving state yields the oracle's result too."""
        graph = make_diamond(flops=20e9, alpha=0.05)

        def counting():
            calls = []

            def edge_time(u, v):
                calls.append((u, v))
                return 1e-3 * (len(calls) % 7)
            return calls, edge_time

        got_calls, got_fn = counting()
        want_calls, want_fn = counting()
        got = hcpa_allocation(graph, model, 8, edge_time=got_fn,
                              keep_trace=True)
        want = _reference_cpa_core(graph, model, 8, area_policy="ntasks",
                                   level_cap=False, edge_time=want_fn,
                                   keep_trace=True)
        assert got_calls == want_calls
        assert _result_fields(got) == _result_fields(want)


# --------------------------------------------------------------------- #
# golden: the benchmark's paper-campaign shapes, sample 0
# --------------------------------------------------------------------- #
GOLDEN_SHAPES = (
    [{"family": "layered", "n_tasks": n, "width": w, "density": d,
      "regularity": r}
     for n, w, d, r in ((25, 0.8, 0.8, 0.2), (50, 0.2, 0.2, 0.8),
                        (50, 0.8, 0.8, 0.8))]
    + [{"family": "irregular", "n_tasks": n, "width": w, "density": d,
        "regularity": r, "jump": j}
       for n, w, d, r, j in ((25, 0.5, 0.2, 0.8, 1), (25, 0.8, 0.8, 0.2, 4),
                             (100, 0.8, 0.2, 0.2, 1))]
    + [{"family": "fft", "k": 4}, {"family": "fft", "k": 16},
       {"family": "strassen"}]
)

#: (cluster, policy) pairs pinned for every shape
GOLDEN_RUNS = (("chti", "hcpa"), ("grillon", "hcpa"), ("grelon", "hcpa"),
               ("grillon", "cpa"), ("grillon", "mcpa"))

_CLUSTERS = {c.name: c for c in (CHTI, GRILLON, GRELON)}


def _golden_allocations(allocate_with=None) -> dict:
    """``{scenario/cluster/policy: {allocation, iterations}}``; the
    production allocators by default, else ``allocate_with(policy)``."""
    out = {}
    for shape in GOLDEN_SHAPES:
        scenario = Scenario(sample=0, **shape)
        graph = scenario.build()
        for cluster_name, policy in GOLDEN_RUNS:
            cluster = _CLUSTERS[cluster_name]
            allocate = (POLICIES[policy][0] if allocate_with is None
                        else allocate_with(policy))
            res = allocate(graph, cluster.performance_model(),
                           cluster.num_procs)
            out[f"{scenario.scenario_id}/{cluster_name}/{policy}"] = {
                "allocation": res.allocation, "iterations": res.iterations}
    return out


def _encode(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_paper_shapes_replay_golden_allocations():
    assert _encode(_golden_allocations()) == GOLDEN.read_text()


def _regenerate() -> None:  # pragma: no cover - manual tool
    def oracle(policy):
        _, core_args = POLICIES[policy]
        return lambda g, m, p: _reference_cpa_core(g, m, p, **core_args)

    golden = _golden_allocations()
    assert _golden_allocations(oracle) == golden
    GOLDEN.write_text(_encode(golden))
    print(f"wrote {GOLDEN}: {len(golden)} allocations")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
