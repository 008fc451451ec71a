"""Parity suite for the batched kernel.

The live-path hot loop promises **bitwise identity**: the batched
``repro_waterfill_batch`` crossing, the compiled sweep and the cached
per-component arenas must replay the per-component numpy solves
byte-for-byte.  These tests pin that against a live engine with
mid-flight injection (checked against the full-solve oracle) and against
the numpy fallback under ``REPRO_NO_C_KERNEL=1``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scenarios import Scenario
from repro.platforms.grid5000 import CHTI
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.simulation.simulator import FluidSimulator


def _schedule_for_scenario(scenario: Scenario, cluster):
    graph = scenario.build()
    model = cluster.performance_model()
    alloc = hcpa_allocation(graph, model, cluster.num_procs).allocation
    return ListScheduler(graph, cluster, model, alloc).run()


def assert_byte_identical(a, b):
    assert a.events == b.events
    assert a.makespan == b.makespan
    assert set(a.task_traces) == set(b.task_traces)
    for name, tr in a.task_traces.items():
        other = b.task_traces[name]
        assert tr.procs == other.procs
        assert tr.start == other.start
        assert tr.finish == other.finish
    assert a.flow_traces == b.flow_traces


class TestBatchParity:
    def test_live_engine_midflight_injection(self):
        """Default live engine ≡ ``lazy=False`` under staggered injection.

        Jobs inject while earlier flows are still in flight, so arenas
        are invalidated mid-stream, pairs resurrect, and components
        merge across jobs — the full streaming shape.
        """
        from repro.experiments.bench import large_platform_jobs
        from repro.online.live import LiveFluidEngine

        platform, jobs = large_platform_jobs(n_clusters=4, n_jobs=6,
                                             chain_len=4)

        def drive(**knobs):
            eng = LiveFluidEngine(platform, collect_flow_traces=True,
                                  **knobs)
            for j, schedule in enumerate(jobs):
                eng.advance_until(0.4 * j)
                eng.inject(f"job{j}", schedule, 0.4 * j)
            eng.drain()
            return eng

        lazy = drive()
        full = drive(lazy=False)
        assert lazy.events == full.events
        assert lazy.makespan() == full.makespan()
        assert lazy.traces == full.traces
        assert lazy.flow_traces == full.flow_traces


class TestNumpyFallbackParity:
    """REPRO_NO_C_KERNEL=1 forces the numpy path."""

    def test_kill_switch_is_bitwise_neutral(self, monkeypatch):
        scenario = Scenario(family="layered", n_tasks=12, width=0.5,
                            density=0.8, regularity=0.8, sample=0)
        schedule = _schedule_for_scenario(scenario, CHTI)
        with_kernel = FluidSimulator(schedule,
                                     collect_flow_traces=True).run()
        monkeypatch.setenv("REPRO_NO_C_KERNEL", "1")
        numpy_path = FluidSimulator(schedule,
                                    collect_flow_traces=True).run()
        assert_byte_identical(numpy_path, with_kernel)

    def test_kill_switch_reaches_registry(self, monkeypatch):
        from repro.simulation.simulator import _ComponentRegistry

        monkeypatch.setenv("REPRO_NO_C_KERNEL", "1")
        reg = _ComponentRegistry(np.array([1.0]), [(0,)], [np.inf])
        assert reg._batch_knl is None
        assert reg._sweep_knl is None


class TestPhaseAttribution:
    """solve_s / event_s counters (satellite of PR 10)."""

    def test_simulation_result_carries_phase_times(self):
        scenario = Scenario(family="layered", n_tasks=8, width=0.5,
                            density=0.8, regularity=0.8, sample=0)
        schedule = _schedule_for_scenario(scenario, CHTI)
        res = FluidSimulator(schedule).run()
        assert res.solve_s > 0.0
        assert res.event_s >= 0.0

    def test_run_result_defaults_keep_old_stores_readable(self):
        from dataclasses import asdict

        from repro.experiments.runner import RunResult

        res = RunResult(scenario_id="s", family="f", cluster="c",
                        algorithm="a", makespan=1.0,
                        estimated_makespan=1.0, work=1.0, n_tasks=1)
        payload = asdict(res)
        # a store written before the counters existed has no such keys
        del payload["solve_s"], payload["event_s"]
        old = RunResult(**payload)
        assert old.solve_s == 0.0 and old.event_s == 0.0

    def test_online_result_carries_phase_times(self):
        from repro.experiments.runner import AlgorithmSpec
        from repro.online.engine import OnlineSimulator
        from repro.online.stream import PoissonStream
        from repro.platforms.cluster import Cluster
        from repro.platforms.multicluster import MultiClusterPlatform

        clusters = tuple(Cluster(name=f"c{i}", num_procs=8,
                                 speed_flops=1e9) for i in range(2))
        platform = MultiClusterPlatform(clusters=clusters, name="mini")
        scenarios = [Scenario(family="layered", n_tasks=6, width=0.5,
                              density=0.5, regularity=0.8, sample=0)]
        stream = PoissonStream(rate=2.0, n_jobs=4, scenarios=scenarios,
                               spec=AlgorithmSpec(label="hcpa"), seed=0)
        res = OnlineSimulator(platform).run(stream)
        assert res.solve_s >= 0.0 and res.event_s >= 0.0
        assert res.solve_s + res.event_s <= res.sim_s + 1e-6
