"""Task and TaskGraph: the mixed-parallel application model of §II-A.

A mixed-parallel application is a DAG ``G = (N, E)`` whose nodes are
*moldable* data-parallel tasks and whose edges carry the amount of data (in
bytes) the producer must send to the consumer.  Redistribution between two
subsequent tasks costs nothing when they run on the *same ordered processor
set* (§II-A).

Tasks operate on ``m`` double-precision elements; the data volume
communicated to *each* child equals the full ``m`` elements (§II-A), i.e.
``8·m`` bytes per out-edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import networkx as nx

__all__ = ["DOUBLE_BYTES", "Task", "TaskGraph"]

#: Size of one double-precision element, in bytes.
DOUBLE_BYTES = 8


@dataclass
class Task:
    """A moldable data-parallel task.

    Parameters
    ----------
    name:
        Unique identifier inside one :class:`TaskGraph`.
    data_elements:
        ``m`` — the number of double-precision elements the task operates
        on.  The paper constrains ``4·10^6 ≤ m ≤ 121·10^6`` (≤ 1 GByte).
    flops:
        Total number of floating-point operations of the *sequential*
        execution (the paper uses ``a·m`` with ``a`` drawn randomly).
    alpha:
        Non-parallelizable fraction of the sequential execution time for
        the Amdahl speedup model, drawn uniformly in ``[0, 0.25]``.

    ``data_elements`` and ``flops`` must be finite and ``>= 0``: a NaN or
    infinite cost would hang redistribution pricing or stall the
    simulator, far from its cause.
    """

    name: str
    data_elements: float = 0.0
    flops: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.data_elements < math.inf:
            raise ValueError(f"task {self.name!r}: data_elements must be "
                             f"finite and >= 0, got {self.data_elements}")
        if not 0 <= self.flops < math.inf:
            raise ValueError(f"task {self.name!r}: flops must be finite "
                             f"and >= 0, got {self.flops}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"task {self.name!r}: alpha must be in [0, 1]")

    @property
    def data_bytes(self) -> float:
        """Size in bytes of the task's dataset (``8·m``)."""
        return self.data_elements * DOUBLE_BYTES

    def with_costs(self, *, data_elements: float | None = None,
                   flops: float | None = None,
                   alpha: float | None = None) -> "Task":
        """Return a copy with some cost fields replaced."""
        return replace(
            self,
            data_elements=self.data_elements if data_elements is None else data_elements,
            flops=self.flops if flops is None else flops,
            alpha=self.alpha if alpha is None else alpha,
        )


@dataclass
class TaskGraph:
    """A DAG of :class:`Task` nodes with byte-weighted edges.

    The container wraps :class:`networkx.DiGraph` and adds the invariants
    the scheduling algorithms rely on: acyclicity, unique task names, and
    non-negative edge weights.  Node keys in the underlying graph are the
    task *names*; the :class:`Task` payloads live in the ``"task"`` node
    attribute and the edge weight in ``"data_bytes"``.
    """

    name: str = "dag"
    _g: nx.DiGraph = field(default_factory=nx.DiGraph, repr=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task) -> Task:
        """Insert a task; raises if the name is already used."""
        if task.name in self._g:
            raise ValueError(f"duplicate task name {task.name!r}")
        self._g.add_node(task.name, task=task)
        return task

    def add_edge(self, src: str | Task, dst: str | Task,
                 data_bytes: float | None = None) -> None:
        """Add a dependence edge carrying ``data_bytes`` bytes (finite,
        ``>= 0``).

        When ``data_bytes`` is omitted the paper's convention applies: the
        producer ships its whole dataset, i.e. ``8·m`` bytes.
        """
        u = src.name if isinstance(src, Task) else src
        v = dst.name if isinstance(dst, Task) else dst
        for n in (u, v):
            if n not in self._g:
                raise KeyError(f"unknown task {n!r}")
        if u == v:
            raise ValueError(f"self-loop on task {u!r}")
        if data_bytes is None:
            data_bytes = self.task(u).data_bytes
        if not 0 <= data_bytes < math.inf:
            raise ValueError(f"edge data_bytes must be finite and >= 0, "
                             f"got {data_bytes}")
        # the graph is acyclic before every insert, so u -> v closes a
        # cycle exactly when v already reaches u (nothing new to check
        # when the edge exists: re-adding only updates its bytes)
        if not self._g.has_edge(u, v) and self._reaches(v, u):
            raise ValueError(f"edge {u!r}->{v!r} would create a cycle")
        self._g.add_edge(u, v, data_bytes=float(data_bytes))

    def _reaches(self, start: str, target: str) -> bool:
        """Whether a directed path leads from ``start`` to ``target``."""
        succ = self._g.succ
        seen = {start}
        stack = [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def task(self, name: str) -> Task:
        """Return the :class:`Task` payload for ``name``."""
        return self._g.nodes[name]["task"]

    def tasks(self) -> Iterator[Task]:
        """Iterate over task payloads in insertion order."""
        for n in self._g.nodes:
            yield self._g.nodes[n]["task"]

    def task_names(self) -> list[str]:
        return list(self._g.nodes)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Iterate over ``(src, dst, data_bytes)`` triples."""
        for u, v, d in self._g.edges(data="data_bytes"):
            yield u, v, d

    def edge_bytes(self, src: str, dst: str) -> float:
        return self._g.edges[src, dst]["data_bytes"]

    def predecessors(self, name: str) -> list[str]:
        return list(self._g.predecessors(name))

    def successors(self, name: str) -> list[str]:
        return list(self._g.successors(name))

    def entry_tasks(self) -> list[str]:
        """Tasks with no predecessor."""
        return [n for n in self._g.nodes if self._g.in_degree(n) == 0]

    def exit_tasks(self) -> list[str]:
        """Tasks with no successor."""
        return [n for n in self._g.nodes if self._g.out_degree(n) == 0]

    def topological_order(self) -> list[str]:
        return list(nx.topological_sort(self._g))

    @property
    def num_tasks(self) -> int:
        return self._g.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    def __contains__(self, name: str) -> bool:
        return name in self._g

    def __len__(self) -> int:
        return self.num_tasks

    @property
    def nx_graph(self) -> nx.DiGraph:
        """The underlying :class:`networkx.DiGraph` (mutate with care)."""
        return self._g

    # ------------------------------------------------------------------ #
    # validation & misc
    # ------------------------------------------------------------------ #
    def validate(self, *, require_single_entry: bool = False,
                 require_single_exit: bool = False) -> None:
        """Check structural invariants; raises :class:`ValueError` on failure."""
        if self.num_tasks == 0:
            raise ValueError("empty task graph")
        if not nx.is_directed_acyclic_graph(self._g):
            raise ValueError("task graph contains a cycle")
        if require_single_entry and len(self.entry_tasks()) != 1:
            raise ValueError(f"expected a single entry task, got {self.entry_tasks()}")
        if require_single_exit and len(self.exit_tasks()) != 1:
            raise ValueError(f"expected a single exit task, got {self.exit_tasks()}")
        for u, v, d in self.edges():
            if d < 0:
                raise ValueError(f"negative edge weight on {u!r}->{v!r}")

    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks())

    def total_edge_bytes(self) -> float:
        return sum(d for _, _, d in self.edges())

    def subgraph_summary(self) -> str:
        """One-line human readable description."""
        return (f"TaskGraph({self.name!r}: {self.num_tasks} tasks, "
                f"{self.num_edges} edges, {self.total_flops():.3g} flops, "
                f"{self.total_edge_bytes():.3g} edge bytes)")

    @classmethod
    def from_tasks(cls, name: str, tasks: Iterable[Task],
                   edges: Iterable[tuple[str, str]] |
                          Iterable[tuple[str, str, float]] = ()) -> "TaskGraph":
        """Build a graph from task payloads and ``(src, dst[, bytes])`` pairs."""
        g = cls(name=name)
        for t in tasks:
            g.add_task(t)
        for e in edges:
            if len(e) == 2:
                g.add_edge(e[0], e[1])
            else:
                g.add_edge(e[0], e[1], e[2])
        return g
