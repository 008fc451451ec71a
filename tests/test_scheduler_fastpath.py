"""The scheduler raw-speed leg: indexed availability and batch pricing.

The project's signature guarantee is that performance work never moves a
number: the indexed availability path must produce ``ScheduleEntry``
lists *equal* to the reference scan path on every input.  The property
tests here draw random DAGs, platforms (single- and multi-cluster) and
residual ``proc_release`` seedings and assert exactly that, alongside
unit tests for the :class:`~repro.scheduling.avail.AvailabilityIndex`,
``price_batch`` against the per-flow estimator, and the online engine's
warm availability index.  The pricer's own parity suite is
``tests/test_pricing_parity.py``.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import RATSParams
from repro.core.rats import RATSScheduler
from repro.dag.generator import DagShape, random_irregular_dag, random_layered_dag
from repro.network.flows import bottleneck_time_estimate_mapped
from repro.platforms.cluster import Cluster
from repro.platforms.multicluster import MultiClusterPlatform
from repro.redistribution.cost import RedistributionCost
from repro.redistribution.matrix import _comm_matrix_entries
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.avail import (AvailabilityIndex, platform_groups,
                                    seed_proc_avail)
from repro.scheduling.mapping import ListScheduler
from repro.scheduling.multicluster import (MultiClusterListScheduler,
                                           MultiClusterRATSScheduler)


# --------------------------------------------------------------------- #
# AvailabilityIndex unit behaviour
# --------------------------------------------------------------------- #
class TestAvailabilityIndex:
    def _reference(self, avail, count, prefer, procs):
        preferred = set(prefer)
        return heapq.nsmallest(
            count, procs,
            key=lambda p: (avail[p], p not in preferred, p))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_k_smallest_matches_nsmallest(self, data):
        n = data.draw(st.integers(2, 40))
        # coarse values force ties — the tie-break order is the point
        avail = [float(v) for v in data.draw(st.lists(
            st.integers(0, 4), min_size=n, max_size=n))]
        idx = AvailabilityIndex(avail)
        count = data.draw(st.integers(1, n + 3))
        prefer = data.draw(st.lists(st.integers(0, n - 1), max_size=5,
                                    unique=True))
        got = idx.k_smallest(count, prefer)
        want = self._reference(avail, count, prefer, range(n))
        assert got == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_updates_and_group_queries(self, data):
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=2,
                                   max_size=5))
        groups, start = [], 0
        for s in sizes:
            groups.append((start, start + s))
            start += s
        avail = [float(v) for v in data.draw(st.lists(
            st.integers(0, 3), min_size=start, max_size=start))]
        idx = AvailabilityIndex(avail, groups)
        for _ in range(data.draw(st.integers(0, 6))):
            p = data.draw(st.integers(0, start - 1))
            t = float(data.draw(st.integers(0, 6)))
            avail[p] = t
            idx.update(p, t)
        g = data.draw(st.integers(0, len(groups) - 1))
        lo, hi = groups[g]
        count = data.draw(st.integers(1, sizes[g] + 2))
        prefer = data.draw(st.lists(st.integers(0, start - 1), max_size=4,
                                    unique=True))
        got = idx.k_smallest(count, prefer, group=g)
        want = self._reference(
            avail, count, [p for p in prefer if lo <= p < hi],
            range(lo, hi))
        assert got == want

    def test_reseed_matches_fresh_index(self):
        rng = np.random.default_rng(7)
        avail = rng.uniform(0, 10, 30)
        idx = AvailabilityIndex(avail, [(0, 10), (10, 30)])
        idx.k_smallest(5, group=0)          # materialise sorted views
        idx.k_smallest(5, group=1)
        new = np.maximum(avail, 6.0)        # the online clamp pattern
        new[3] = 99.0
        idx.reseed(new)
        fresh = AvailabilityIndex(new, [(0, 10), (10, 30)])
        for g in (0, 1, None):
            assert idx.k_smallest(30, group=g) == \
                fresh.k_smallest(30, group=g)

    def test_update_many_marks_only_touched_groups(self):
        idx = AvailabilityIndex([0.0] * 8, [(0, 4), (4, 8)])
        idx.k_smallest(4, group=0)
        idx.k_smallest(4, group=1)
        idx.update_many((5, 6), 2.0)
        assert idx._sorted[0] is not None   # untouched cluster stays sorted
        assert idx._sorted[1] is None
        assert idx.k_smallest(4, group=1) == [4, 7, 5, 6]

    def test_groups_must_partition(self):
        with pytest.raises(ValueError):
            AvailabilityIndex([0.0] * 4, [(0, 2), (3, 4)])

    def test_platform_groups(self):
        cl = Cluster(name="pg", num_procs=5, speed_flops=1e9)
        assert platform_groups(cl) == [(0, 5)]
        mc = MultiClusterPlatform(clusters=(
            Cluster(name="pg0", num_procs=3, speed_flops=1e9),
            Cluster(name="pg1", num_procs=4, speed_flops=1e9)),
            name="pg-mc")
        assert platform_groups(mc) == [(0, 3), (3, 7)]


class TestSeedProcAvail:
    def test_defaults_to_zeros(self):
        assert seed_proc_avail(None, 3) == [0.0, 0.0, 0.0]

    def test_validates_length_everywhere(self):
        # the shared helper is the single seeding path of every
        # scheduler variant — all four must reject a short vector
        g = random_layered_dag(DagShape(n_tasks=4),
                               np.random.default_rng(0))
        cl = Cluster(name="seed1", num_procs=4, speed_flops=1e9)
        mc = MultiClusterPlatform(clusters=(
            Cluster(name="seed2", num_procs=2, speed_flops=1e9),
            Cluster(name="seed3", num_procs=2, speed_flops=1e9)),
            name="seed-mc")
        model = cl.performance_model()
        alloc = {n: 1 for n in g.task_names()}
        bad = [0.0, 0.0]
        params = RATSParams("timecost")
        with pytest.raises(ValueError, match="proc_release"):
            ListScheduler(g, cl, model, alloc, proc_release=bad)
        with pytest.raises(ValueError, match="proc_release"):
            RATSScheduler(g, cl, model, alloc, params, proc_release=bad)
        with pytest.raises(ValueError, match="proc_release"):
            MultiClusterListScheduler(g, mc, alloc, proc_release=bad)
        with pytest.raises(ValueError, match="proc_release"):
            MultiClusterRATSScheduler(g, mc, alloc, params,
                                      proc_release=bad)


# --------------------------------------------------------------------- #
# property: fast paths == reference paths, entry for entry
# --------------------------------------------------------------------- #
def _draw_platform(data):
    if data.draw(st.booleans()):
        n = data.draw(st.integers(2, 20))
        return Cluster(name="prop-c", num_procs=n, speed_flops=1e9,
                       bandwidth_Bps=1e8, latency_s=1e-4)
    sizes = data.draw(st.lists(st.integers(2, 8), min_size=2, max_size=4))
    speeds = [float(data.draw(st.sampled_from([1.0e9, 2.0e9, 3.0e9])))
              for _ in sizes]
    return MultiClusterPlatform(clusters=tuple(
        Cluster(name=f"prop-{k}", num_procs=s, speed_flops=sp,
                bandwidth_Bps=1e8, latency_s=1e-4)
        for k, (s, sp) in enumerate(zip(sizes, speeds))),
        name="prop-mc")


def _draw_case(data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    shape = DagShape(n_tasks=data.draw(st.integers(3, 18)))
    maker = random_layered_dag if data.draw(st.booleans()) \
        else random_irregular_dag
    graph = maker(shape, rng)
    platform = _draw_platform(data)
    model = platform.performance_model()
    allocation = hcpa_allocation(graph, model, platform.num_procs).allocation
    if data.draw(st.booleans()):   # residual seeding (the online case)
        release = [float(t) for t in rng.uniform(0.0, 4.0,
                                                 platform.num_procs)]
    else:
        release = None
    return graph, platform, model, allocation, release


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_list_scheduler_fastpath_byte_identical(data):
    graph, platform, model, allocation, release = _draw_case(data)
    if hasattr(platform, "clusters"):
        fast = MultiClusterListScheduler(
            graph, platform, allocation, proc_release=release).run()
        ref = MultiClusterListScheduler(
            graph, platform, allocation, proc_release=release,
            avail_index=False).run()
    else:
        fast = ListScheduler(graph, platform, model, allocation,
                             proc_release=release).run()
        ref = ListScheduler(graph, platform, model, allocation,
                            proc_release=release, avail_index=False).run()
    assert fast.entries == ref.entries


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rats_scheduler_fastpath_byte_identical(data):
    graph, platform, model, allocation, release = _draw_case(data)
    params = RATSParams(data.draw(st.sampled_from(["timecost", "delta"])))
    if hasattr(platform, "clusters"):
        fast = MultiClusterRATSScheduler(
            graph, platform, allocation, params,
            proc_release=release).run()
        ref = MultiClusterRATSScheduler(
            graph, platform, allocation, params, proc_release=release,
            avail_index=False).run()
    else:
        fast = RATSScheduler(graph, platform, model, allocation, params,
                             proc_release=release).run()
        ref = RATSScheduler(graph, platform, model, allocation, params,
                            proc_release=release, avail_index=False).run()
    assert fast.entries == ref.entries
    assert fast.makespan == ref.makespan


def test_rich_policy_fastpath_and_set_extension():
    # micro-regression for the extension-pool scan: the pool filter now
    # goes through a set, and the indexed path must reproduce the same
    # predecessor-extended candidates
    rng = np.random.default_rng(11)
    graph = random_layered_dag(DagShape(n_tasks=12), rng)
    cl = Cluster(name="rich", num_procs=12, speed_flops=1e9,
                 bandwidth_Bps=1e8, latency_s=1e-4)
    model = cl.performance_model()
    allocation = hcpa_allocation(graph, model, cl.num_procs).allocation
    runs = [ListScheduler(graph, cl, model, allocation,
                          candidates="rich", avail_index=fast).run()
            for fast in (True, False)]
    assert runs[0].entries == runs[1].entries


# --------------------------------------------------------------------- #
# batch pricing: bitwise parity with the per-flow estimator
# --------------------------------------------------------------------- #
class TestBatchPricing:
    def _platform(self):
        return MultiClusterPlatform(clusters=tuple(
            Cluster(name=f"bp{k}", num_procs=8,
                    speed_flops=1e9 * (k + 1), bandwidth_Bps=1e8,
                    latency_s=1e-4) for k in range(3)),
            name="bp-mc")

    def test_price_batch_matches_scalar(self):
        plat = self._platform()
        batched = RedistributionCost(plat)
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = int(rng.integers(1, 7))
            src = tuple(int(x) for x in
                        rng.choice(24, size=p, replace=False))
            dsts = []
            for _ in range(int(rng.integers(1, 5))):
                q = int(rng.integers(1, 7))
                dsts.append(tuple(int(x) for x in
                                  rng.choice(24, size=q, replace=False)))
            data = float(rng.uniform(0, 1e7))
            times, remotes = batched.price_batch(src, dsts, data)
            for d, t, r in zip(dsts, times, remotes):
                entries = _comm_matrix_entries(data, len(src), len(d))
                assert t == bottleneck_time_estimate_mapped(src, d, entries,
                                                            plat)
                remote = 0.0
                for i, j, amount in entries:
                    if src[i] != d[j]:
                        remote += amount
                assert r == remote


# --------------------------------------------------------------------- #
# online engine: the warm index stays byte-identical
# --------------------------------------------------------------------- #
class TestOnlineFastpath:
    def _stream(self, n_jobs=25, adaptive=False):
        from repro.experiments.runner import AlgorithmSpec
        from repro.experiments.scenarios import Scenario
        from repro.online.stream import PoissonStream

        scenarios = [Scenario(family="layered", n_tasks=10, width=0.5,
                              density=0.2, regularity=0.8, sample=s)
                     for s in range(3)]
        spec = (AlgorithmSpec(label="rats-timecost", strategy="timecost")
                if adaptive else AlgorithmSpec(label="hcpa"))
        return PoissonStream(rate=2.0, n_jobs=n_jobs, scenarios=scenarios,
                             spec=spec, seed=0)

    def _platform(self):
        return MultiClusterPlatform(clusters=tuple(
            Cluster(name=f"on{k}", num_procs=12, speed_flops=3.0e9)
            for k in range(6)), name="on-mc")

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_warm_index_byte_identical(self, adaptive):
        from repro.online.engine import OnlineSimulator

        plat = self._platform()
        ref = OnlineSimulator(plat, avail_index=False).run(
            self._stream(adaptive=adaptive))
        res = OnlineSimulator(plat).run(self._stream(adaptive=adaptive))
        assert res.records == ref.records
        assert res.makespan == ref.makespan
        assert res.events == ref.events

    def test_result_reports_time_attribution(self):
        from repro.online.engine import OnlineSimulator

        res = OnlineSimulator(self._platform()).run(self._stream(n_jobs=8))
        assert res.sched_s > 0.0
        assert res.sim_s > 0.0
