"""Tests for the Task / TaskGraph application model."""

from __future__ import annotations

import math

import pytest

from repro.dag.task import DOUBLE_BYTES, Task, TaskGraph

from conftest import make_chain, make_diamond


class TestTask:
    def test_data_bytes(self):
        t = Task("t", data_elements=10)
        assert t.data_bytes == 10 * DOUBLE_BYTES

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError, match="data_elements"):
            Task("t", data_elements=-1)

    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError, match="flops"):
            Task("t", flops=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["data_elements", "flops"])
    def test_rejects_non_finite_costs(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Task("t", **{field: value})

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            Task("t", alpha=alpha)

    def test_with_costs_partial_update(self):
        t = Task("t", data_elements=1, flops=2, alpha=0.1)
        u = t.with_costs(flops=5)
        assert (u.data_elements, u.flops, u.alpha) == (1, 5, 0.1)
        assert t.flops == 2  # original untouched


class TestTaskGraphConstruction:
    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_task(Task("a"))

    def test_edge_to_unknown_task(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(KeyError):
            g.add_edge("a", "missing")

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = make_chain(3)
        with pytest.raises(ValueError, match="cycle"):
            g.add_edge("t2", "t0")
        # the offending edge must not remain
        assert ("t2", "t0") not in [(u, v) for u, v, _ in g.edges()]

    def test_two_cycle_rejected_with_graph_unchanged(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        g.add_task(Task("b"))
        g.add_edge("a", "b", 5.0)
        before = list(g.edges())
        with pytest.raises(ValueError,
                           match="edge 'b'->'a' would create a cycle"):
            g.add_edge("b", "a", 1.0)
        assert list(g.edges()) == before
        assert g.predecessors("a") == [] and g.successors("b") == []

    def test_long_cycle_rejected_with_graph_unchanged(self):
        g = make_chain(30)
        g.add_task(Task("side"))
        g.add_edge("t3", "side")
        g.add_edge("side", "t20")
        before = list(g.edges())
        for u, v in (("t29", "t0"), ("t20", "side"), ("side", "t3"),
                     ("t25", "t4")):
            with pytest.raises(ValueError, match="would create a cycle"):
                g.add_edge(u, v)
            assert list(g.edges()) == before
        g.add_edge("t0", "t29")          # a shortcut is still acyclic
        assert g.num_edges == len(before) + 1

    def test_re_adding_an_edge_updates_its_bytes(self):
        g = make_chain(3)
        order = list(g.edges())
        g.add_edge("t0", "t1", 42.0)
        assert g.edge_bytes("t0", "t1") == 42.0
        assert [(u, v) for u, v, _ in g.edges()] == \
            [(u, v) for u, v, _ in order]

    def test_paper_slice_graphs_equal_the_whole_graph_check(self,
                                                            monkeypatch):
        """The 27 paper-slice graphs, built edge for edge, equal the ones
        built when every insert re-checks the whole graph for cycles."""
        import networkx as nx

        from repro.experiments.scenarios import Scenario

        shapes = (
            [{"family": "layered", "n_tasks": n, "width": w, "density": d,
              "regularity": r}
             for n, w, d, r in ((25, 0.8, 0.8, 0.2), (50, 0.2, 0.2, 0.8),
                                (50, 0.8, 0.8, 0.8))]
            + [{"family": "irregular", "n_tasks": n, "width": w,
                "density": d, "regularity": r, "jump": j}
               for n, w, d, r, j in ((25, 0.5, 0.2, 0.8, 1),
                                     (25, 0.8, 0.8, 0.2, 4),
                                     (100, 0.8, 0.2, 0.2, 1))]
            + [{"family": "fft", "k": 4}, {"family": "fft", "k": 16},
               {"family": "strassen"}])
        scenarios = [Scenario(sample=s, **shape) for shape in shapes
                     for s in range(3)]

        def layout(g):
            nxg = g.nx_graph
            return (list(nxg.nodes), list(g.edges()),
                    [list(nxg.pred[n]) for n in nxg],
                    [list(nxg.succ[n]) for n in nxg])

        built = [layout(sc.build()) for sc in scenarios]

        def whole_graph_add_edge(self, src, dst, data_bytes=None):
            u = src.name if isinstance(src, Task) else src
            v = dst.name if isinstance(dst, Task) else dst
            if data_bytes is None:
                data_bytes = self.task(u).data_bytes
            self._g.add_edge(u, v, data_bytes=float(data_bytes))
            if not nx.is_directed_acyclic_graph(self._g):
                self._g.remove_edge(u, v)
                raise ValueError(f"edge {u!r}->{v!r} would create a cycle")

        monkeypatch.setattr(TaskGraph, "add_edge", whole_graph_add_edge)
        assert built == [layout(sc.build()) for sc in scenarios]

    def test_default_edge_weight_is_producer_bytes(self):
        g = TaskGraph()
        g.add_task(Task("a", data_elements=100))
        g.add_task(Task("b"))
        g.add_edge("a", "b")
        assert g.edge_bytes("a", "b") == 100 * DOUBLE_BYTES

    def test_explicit_edge_weight(self):
        g = TaskGraph()
        g.add_task(Task("a", data_elements=100))
        g.add_task(Task("b"))
        g.add_edge("a", "b", data_bytes=7.0)
        assert g.edge_bytes("a", "b") == 7.0

    def test_negative_edge_weight_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        g.add_task(Task("b"))
        with pytest.raises(ValueError, match=">= 0"):
            g.add_edge("a", "b", data_bytes=-1)

    @pytest.mark.parametrize("data_elements, data_bytes", [
        (1.0, math.nan), (1.0, math.inf),
        (1e308, None),          # the default 8·m bytes overflow to inf
    ], ids=["nan", "inf", "default-overflow"])
    def test_non_finite_edge_weight_rejected(self, data_elements,
                                             data_bytes):
        g = TaskGraph()
        g.add_task(Task("a", data_elements=data_elements))
        g.add_task(Task("b"))
        with pytest.raises(ValueError, match="finite"):
            g.add_edge("a", "b", data_bytes=data_bytes)
        assert g.num_edges == 0

    def test_add_edge_accepts_task_objects(self):
        g = TaskGraph()
        a = g.add_task(Task("a", data_elements=1))
        b = g.add_task(Task("b"))
        g.add_edge(a, b)
        assert g.successors("a") == ["b"]


class TestTaskGraphAccessors:
    def test_diamond_structure(self):
        g = make_diamond()
        assert g.num_tasks == 4
        assert g.num_edges == 4
        assert g.entry_tasks() == ["entry"]
        assert g.exit_tasks() == ["exit"]
        assert set(g.successors("entry")) == {"left", "right"}
        assert set(g.predecessors("exit")) == {"left", "right"}

    def test_topological_order_respects_edges(self):
        g = make_diamond()
        order = g.topological_order()
        assert order.index("entry") < order.index("left")
        assert order.index("right") < order.index("exit")

    def test_contains_and_len(self):
        g = make_chain(5)
        assert "t0" in g
        assert "nope" not in g
        assert len(g) == 5

    def test_totals(self):
        g = make_chain(3, m=10, flops=100)
        assert g.total_flops() == 300
        assert g.total_edge_bytes() == 2 * 10 * DOUBLE_BYTES

    def test_from_tasks_builder(self):
        g = TaskGraph.from_tasks(
            "built",
            [Task("a", data_elements=1), Task("b")],
            [("a", "b")],
        )
        assert g.num_tasks == 2 and g.num_edges == 1


class TestValidate:
    def test_valid_graph_passes(self):
        make_diamond().validate(require_single_entry=True,
                                require_single_exit=True)

    def test_empty_graph_fails(self):
        with pytest.raises(ValueError, match="empty"):
            TaskGraph().validate()

    def test_multiple_entries_detected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        g.add_task(Task("b"))
        g.add_task(Task("c"))
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        with pytest.raises(ValueError, match="single entry"):
            g.validate(require_single_entry=True)
        g.validate()  # fine without the flag
