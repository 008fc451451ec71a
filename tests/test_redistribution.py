"""Tests for 1-D block redistribution: intervals, communication matrices
(Table I), receiver alignment and cost estimation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import FlowSpec, bottleneck_time_estimate
from repro.platforms.cluster import Cluster
from repro.redistribution.block import block_interval, block_intervals
from repro.redistribution.cost import RedistributionCost
from repro.redistribution.matrix import (
    communication_matrix,
    communication_matrix_dense,
    redistribution_flows,
)
from repro.redistribution.remap import align_receivers


class TestBlockIntervals:
    def test_paper_example_senders(self):
        # 10 units over 4 procs -> 2.5 each
        assert block_intervals(10, 4) == [
            (0.0, 2.5), (2.5, 5.0), (5.0, 7.5), (7.5, 10.0)]

    def test_single_proc_owns_all(self):
        assert block_interval(7, 1, 0) == (0.0, 7.0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            block_interval(10, 4, 4)

    @given(st.floats(0.1, 1e9), st.integers(1, 200))
    def test_intervals_partition_dataset(self, m, p):
        ivals = block_intervals(m, p)
        assert ivals[0][0] == 0.0
        assert ivals[-1][1] == pytest.approx(m)
        for (a, b), (c, d) in zip(ivals, ivals[1:]):
            assert b == pytest.approx(c)
            assert b > a or m == 0


class TestCommunicationMatrix:
    def test_table1_exact(self):
        """Table I: 10 units, p=4 -> q=5."""
        expected = {
            (0, 0): 2.0, (0, 1): 0.5,
            (1, 1): 1.5, (1, 2): 1.0,
            (2, 2): 1.0, (2, 3): 1.5,
            (3, 3): 0.5, (3, 4): 2.0,
        }
        mat = communication_matrix(10, 4, 5)
        assert set(mat) == set(expected)
        for key, v in expected.items():
            assert mat[key] == pytest.approx(v)

    def test_identity_when_p_equals_q(self):
        mat = communication_matrix(12, 3, 3)
        assert set(mat) == {(0, 0), (1, 1), (2, 2)}
        assert all(v == pytest.approx(4.0) for v in mat.values())

    def test_gather(self):
        mat = communication_matrix(12, 3, 1)
        assert mat == pytest.approx({(0, 0): 4.0, (1, 0): 4.0, (2, 0): 4.0})

    def test_scatter(self):
        mat = communication_matrix(12, 1, 3)
        assert mat == pytest.approx({(0, 0): 4.0, (0, 1): 4.0, (0, 2): 4.0})

    def test_zero_data(self):
        assert communication_matrix(0, 3, 4) == {}

    def test_dense_matches_sparse(self):
        dense = communication_matrix_dense(10, 4, 5)
        sparse = communication_matrix(10, 4, 5)
        assert dense.shape == (4, 5)
        assert dense.sum() == pytest.approx(10)
        for (i, j), v in sparse.items():
            assert dense[i, j] == pytest.approx(v)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 1e10), st.integers(1, 64), st.integers(1, 64))
    def test_conservation_property(self, m, p, q):
        """All data is sent exactly once: entries sum to m; each sender
        sends its full block; each receiver gets its full block."""
        mat = communication_matrix(m, p, q)
        assert sum(mat.values()) == pytest.approx(m, rel=1e-9)
        for i in range(p):
            row = sum(v for (si, _), v in mat.items() if si == i)
            assert row == pytest.approx(m / p, rel=1e-6)
        for j in range(q):
            col = sum(v for (_, rj), v in mat.items() if rj == j)
            assert col == pytest.approx(m / q, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 128), st.integers(1, 128))
    def test_banded_sparsity(self, p, q):
        """At most p + q - 1 non-zero entries (keeps simulation tractable)."""
        mat = communication_matrix(1e6, p, q)
        assert len(mat) <= p + q - 1


class TestRedistributionFlows:
    def test_identical_ordered_sets_no_flows(self):
        assert redistribution_flows((3, 1, 2), (3, 1, 2), 1e6) == []

    def test_same_set_different_order_has_flows(self):
        flows = redistribution_flows((1, 2), (2, 1), 1e6)
        assert flows  # block ranks moved across nodes
        assert all(f.src != f.dst for f in flows)

    def test_disjoint_sets_ship_everything(self):
        flows = redistribution_flows((0, 1), (2, 3), 100.0)
        assert sum(f.data_bytes for f in flows) == pytest.approx(100.0)

    def test_partial_overlap_keeps_local_share(self):
        # (0,1) -> (0,1,2): ranks 0,1 keep their prefix overlap locally
        flows = redistribution_flows((0, 1), (0, 1, 2), 90.0)
        shipped = sum(f.data_bytes for f in flows)
        assert shipped < 90.0
        assert all(f.src != f.dst for f in flows)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            redistribution_flows((), (1,), 10.0)


class TestAlignReceivers:
    def test_same_set_same_size_is_identity(self):
        assert align_receivers((4, 2, 7), {2, 4, 7}) == (4, 2, 7)

    def test_disjoint_sets_sorted(self):
        assert align_receivers((0, 1), {5, 3}) == (3, 5)

    def test_alignment_beats_sorted_order(self):
        """Aligned receiver order must keep at least as many bytes local as
        the naive sorted order."""
        src = (5, 3, 8, 1)
        dst = {3, 8, 10, 11}

        def remote(dst_order):
            return sum(f.data_bytes
                       for f in redistribution_flows(src, dst_order, 1000.0))

        aligned = align_receivers(src, dst)
        assert remote(aligned) <= remote(tuple(sorted(dst)))

    def test_subset_shrink_prefers_prefix_overlap(self):
        src = (0, 1, 2, 3)
        aligned = align_receivers(src, {0, 1})
        # both procs shared: order must preserve the sender's relative order
        assert aligned == (0, 1)

    def test_empty_receivers_rejected(self):
        with pytest.raises(ValueError):
            align_receivers((0,), set())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
           st.sets(st.integers(0, 30), min_size=1, max_size=10))
    def test_returns_permutation(self, src, dst):
        out = align_receivers(tuple(src), dst)
        assert sorted(out) == sorted(dst)


class TestRedistributionCost:
    @pytest.fixture
    def cost(self, tiny_cluster: Cluster) -> RedistributionCost:
        return RedistributionCost(tiny_cluster)

    def test_same_ordered_set_is_free(self, cost):
        assert cost.time((0, 1, 2), (0, 1, 2), 1e9) == 0.0

    def test_zero_bytes_free(self, cost):
        assert cost.time((0,), (1,), 0.0) == 0.0

    def test_disjoint_transfer_cost(self, cost, tiny_cluster):
        """1 -> 1 proc: whole dataset over one NIC."""
        data = 1.25e8  # exactly 1 second at 1 Gb/s
        t = cost.time((0,), (1,), data)
        assert t == pytest.approx(1.0 + tiny_cluster.latency_s, rel=1e-6)

    def test_more_receivers_not_slower_than_gather(self, cost):
        data = 1e9
        scatter = cost.time((0,), (1, 2, 3, 4), data)
        gather = cost.time((1, 2, 3, 4), (5,), data)
        # both bottleneck on the single node's NIC: equal estimates
        assert scatter == pytest.approx(gather)

    def test_remote_bytes_excludes_self_comm(self, cost):
        assert cost.remote_bytes((0, 1), (0, 1), 100.0) == 0.0
        assert cost.remote_bytes((0, 1), (2, 3), 100.0) == pytest.approx(100.0)

    def test_cache_hit_consistent(self, cost):
        a = cost.time((0, 1), (2, 3), 5e8)
        b = cost.time((0, 1), (2, 3), 5e8)
        assert a == b

    def test_average_edge_time_positive(self, cost):
        assert cost.average_edge_time(1e6) > 0
        assert cost.average_edge_time(0.0) == 0.0


class TestBottleneckEstimate:
    def test_empty_flows(self, tiny_cluster):
        assert bottleneck_time_estimate([], tiny_cluster) == 0.0

    def test_self_flows_free(self, tiny_cluster):
        flows = [FlowSpec(0, 0, 1e9)]
        assert bottleneck_time_estimate(flows, tiny_cluster) == 0.0

    def test_fan_out_bottleneck_is_sender_nic(self, tiny_cluster):
        bw = tiny_cluster.bandwidth_Bps
        flows = [FlowSpec(0, i, bw) for i in (1, 2, 3)]
        t = bottleneck_time_estimate(flows, tiny_cluster)
        assert t == pytest.approx(3.0 + tiny_cluster.latency_s, rel=1e-6)

    def test_parallel_pairs_bottleneck_one_pair(self, tiny_cluster):
        bw = tiny_cluster.bandwidth_Bps
        flows = [FlowSpec(0, 1, 2 * bw), FlowSpec(2, 3, bw)]
        t = bottleneck_time_estimate(flows, tiny_cluster)
        assert t == pytest.approx(2.0 + tiny_cluster.latency_s, rel=1e-6)

    def test_hierarchical_cabinet_uplink_counts(self, hier_cluster):
        bw = hier_cluster.bandwidth_Bps
        # two flows from cabinet 0 to cabinet 1 share the cab uplink
        flows = [FlowSpec(0, 4, bw), FlowSpec(1, 5, bw)]
        t = bottleneck_time_estimate(flows, hier_cluster)
        assert t == pytest.approx(2.0 + 2 * hier_cluster.latency_s, rel=1e-6)


class TestCostValidation:
    def test_cost_estimator_rejects_malformed_inputs(self):
        """The pricing fast path keeps redistribution_flows' validation.

        A negative or NaN byte count would otherwise spin the memoised
        two-pointer sweep forever, an infinite one price as free, and an
        empty processor set divide by zero — all must surface as clean
        ValueErrors.
        """
        import math

        import pytest

        from repro.platforms.grid5000 import CHTI
        from repro.redistribution.cost import RedistributionCost

        rc = RedistributionCost(CHTI)
        for fn in (rc.time, rc.remote_bytes):
            with pytest.raises(ValueError, match="m must be >= 0"):
                fn((0,), (1,), -5.0)
            with pytest.raises(ValueError, match="m must be >= 0"):
                fn((0,), (1,), -math.inf)
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="m must be finite"):
                    fn((0, 1), (2, 3, 4), bad)
            with pytest.raises(ValueError, match="p and q"):
                fn((), (0, 1), 100.0)
