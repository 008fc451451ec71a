"""Performance benchmarks of the substrate itself (not a paper artefact).

These keep the fluid simulator and the Max-Min solver honest: the full
557-configuration campaign is only tractable because a dense 100-task
simulation stays in the low seconds.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.bench import dense_dag_schedule
from repro.experiments.scenarios import Scenario
from repro.network.maxmin import maxmin_rates
from repro.platforms.grid5000 import GRILLON
from repro.scheduling.allocation import hcpa_allocation
from repro.simulation.simulator import simulate
from repro.utils.rng import spawn_rng


def _dense_schedule():
    # the one canonical bench workload — shared with `repro bench` and
    # the golden simulator tests so all three measure the same thing
    return dense_dag_schedule(100)


def test_simulator_dense_dag(benchmark):
    schedule = _dense_schedule()
    res = benchmark.pedantic(lambda: simulate(schedule), rounds=3,
                             iterations=1)
    assert res.makespan > 0


def test_simulator_bundling_speedup(benchmark):
    """Bundled Max-Min solves vs the per-flow reference engine.

    Guards the PR-3 fast path: identical results (events and makespan),
    and the bundled solver must stay well ahead of the reference
    implementation it replaced.
    """
    import time

    from repro.simulation.reference import simulate_reference
    from repro.simulation.simulator import FluidSimulator

    schedule = _dense_schedule()
    t0 = time.perf_counter()
    ref = simulate_reference(schedule)
    t_ref = time.perf_counter() - t0

    fast = benchmark.pedantic(
        lambda: FluidSimulator(schedule).run(), rounds=2, iterations=1)
    t_fast = benchmark.stats.stats.min

    assert fast.events == ref.events
    assert abs(fast.makespan - ref.makespan) <= 1e-9 * ref.makespan
    speedup = t_ref / t_fast
    print(f"\ndense-DAG simulate: reference {t_ref:.2f}s, "
          f"bundled {t_fast:.2f}s, speedup {speedup:.2f}x")
    assert speedup > 1.5, (
        f"bundled solver no faster than reference ({speedup:.2f}x)")


def test_hcpa_allocation_speed(benchmark):
    sc = Scenario(family="layered", n_tasks=100, width=0.8, density=0.8,
                  regularity=0.8, sample=0)
    g = sc.build()
    model = GRILLON.performance_model()
    res = benchmark(hcpa_allocation, g, model, GRILLON.num_procs)
    assert res.converged or res.iterations > 0


def test_simulator_component_reuse(benchmark):
    """Sparse multi-cluster pipelines: the lazy component engine's regime.

    Concurrent transfers touch disjoint processor sets, so the active
    flows decompose into ~one link-connected component per cluster and
    the lazy path re-solves far fewer (and far smaller) systems than one
    Max-Min solve per event.
    """
    from repro.experiments.bench import sparse_multicluster_schedule

    schedule = sparse_multicluster_schedule()
    res = benchmark.pedantic(lambda: simulate(schedule), rounds=3,
                             iterations=1)
    # the lazy path must beat one-solve-per-event by >= 2x here
    assert res.solves_component < 0.5 * res.events


def test_maxmin_bundled_speed(benchmark):
    """1000 random flows over a grelon-sized topology (250 links)
    through the bundled solver (the sim hot path), checked against the
    reference solver."""
    from repro.network.maxmin import maxmin_rates_bundled

    rng = spawn_rng("maxmin-bench")
    n_links, n_flows = 250, 1000
    capacities = np.full(n_links, 1.25e8)
    flows = [
        [int(a), int(b)]
        for a, b in rng.integers(0, n_links, size=(n_flows, 2))
    ]
    rates = benchmark(maxmin_rates_bundled, flows, capacities)
    assert len(rates) == n_flows
    ref = maxmin_rates(flows, dict(enumerate(capacities)))
    np.testing.assert_allclose(rates, ref, rtol=1e-9, atol=1e-9)


def test_parallel_run_matrix_speedup(benchmark):
    """Process-pool run_matrix vs serial on a >= 64-run matrix.

    Guards the registry-era executor: the parallel path must return the
    exact serial result list (modulo wall-clock stamps, disabled here) and
    be measurably faster on multicore hosts.
    """
    import os
    import time

    from repro.core.params import NAIVE_DELTA, NAIVE_TIMECOST
    from repro.experiments.runner import (
        ExperimentRunner,
        baseline_spec,
        rats_spec,
    )

    scenarios = [
        Scenario(family="layered", n_tasks=25, width=w, density=d,
                 regularity=0.8, sample=s)
        for w in (0.2, 0.5, 0.8) for d in (0.2, 0.8) for s in range(4)
    ]  # 24 scenarios
    specs = [baseline_spec("hcpa", label="HCPA"),
             rats_spec(NAIVE_DELTA, label="delta"),
             rats_spec(NAIVE_TIMECOST, label="time-cost")]
    total_runs = len(scenarios) * len(specs)
    assert total_runs >= 64

    t0 = time.perf_counter()
    serial = ExperimentRunner(record_timings=False).run_matrix(
        scenarios, [GRILLON], specs)
    t_serial = time.perf_counter() - t0

    jobs = min(8, os.cpu_count() or 1)

    def parallel_matrix():
        return ExperimentRunner(record_timings=False).run_matrix(
            scenarios, [GRILLON], specs, jobs=jobs)

    parallel = benchmark.pedantic(parallel_matrix, rounds=1, iterations=1)
    t_parallel = benchmark.stats.stats.mean

    assert parallel == serial  # byte-identical, deterministic order
    speedup = t_serial / t_parallel
    print(f"\n{total_runs}-run matrix: serial {t_serial:.2f}s, "
          f"parallel({jobs}) {t_parallel:.2f}s, speedup {speedup:.2f}x")
    if jobs > 1:
        assert speedup > 1.0, (
            f"parallel run_matrix slower than serial ({speedup:.2f}x)")


def test_persistent_pool_beats_per_call_startup(benchmark):
    """Many small run_matrix calls on ONE runner (persistent pool, warm
    worker caches) vs a fresh runner — and thus a fresh pool — per call.

    This is the `campaign --jobs N` shape: dozens of modest matrices, where
    per-call pool startup used to dominate.
    """
    import time

    from repro.core.params import NAIVE_DELTA
    from repro.experiments.runner import (
        ExperimentRunner,
        baseline_spec,
        rats_spec,
    )

    scenarios = [
        Scenario(family="layered", n_tasks=25, width=0.5, density=0.2,
                 regularity=0.8, sample=s)
        for s in range(4)
    ]
    specs = [baseline_spec("hcpa", label="HCPA"),
             rats_spec(NAIVE_DELTA, label="delta")]
    jobs, calls = 2, 5

    t0 = time.perf_counter()
    per_call_results = []
    for _ in range(calls):
        with ExperimentRunner(record_timings=False, jobs=jobs) as runner:
            per_call_results.append(
                runner.run_matrix(scenarios, [GRILLON], specs))
    t_per_call = time.perf_counter() - t0

    def persistent():
        with ExperimentRunner(record_timings=False, jobs=jobs) as runner:
            return [runner.run_matrix(scenarios, [GRILLON], specs)
                    for _ in range(calls)]

    persistent_results = benchmark.pedantic(persistent, rounds=1,
                                            iterations=1)
    t_persistent = benchmark.stats.stats.mean

    assert persistent_results == per_call_results
    speedup = t_per_call / t_persistent
    print(f"\n{calls} x {len(scenarios) * len(specs)}-run matrices: "
          f"per-call pools {t_per_call:.2f}s, persistent pool "
          f"{t_persistent:.2f}s, speedup {speedup:.2f}x")
    assert speedup > 1.0, (
        f"persistent pool slower than per-call pools ({speedup:.2f}x)")
