"""Step one of two-step scheduling: moldable-task allocation (paper §II-C).

All three procedures share the CPA iteration [Radulescu & van Gemund 2001]:
start from one processor per task; while the critical path ``C∞`` exceeds
the average area ``W̄``, give one more processor to the critical-path task
that benefits the most.  ``C∞ = W̄`` is the optimal trade-off because both
quantities lower-bound the makespan.

* :func:`cpa_allocation` — plain CPA (``P_eff = P``).
* :func:`hcpa_allocation` — HCPA's allocation [N'takpé, Suter & Casanova
  2007]: identical loop with the average-area bias fix ``P_eff = min(P, N)``
  ("a modified definition of W to remove the bias induced by a large number
  of available processors", §II-C).  This is the allocator RATS builds on.
* :func:`mcpa_allocation` — MCPA [Bansal, Kumar & Singh 2006]: additionally
  caps each precedence level's total allocation at ``P`` so all tasks of a
  level can run concurrently.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable

from repro.dag.analysis import dag_levels
from repro.dag.task import TaskGraph
from repro.model.amdahl import PerformanceModel
from repro.registry import register_allocator
from repro.scheduling.bounds import effective_processor_count

__all__ = [
    "AllocationResult",
    "cpa_allocation",
    "hcpa_allocation",
    "mcpa_allocation",
]

_TOL = 1e-9


@dataclass
class AllocationResult:
    """Outcome of an allocation procedure.

    ``converged`` is true when the stopping condition ``C∞ ≤ W̄`` was
    reached (as opposed to running out of grantable processors).
    """

    allocation: dict[str, int]
    iterations: int
    cp_length: float
    avg_area: float
    converged: bool
    trace: list[tuple[str, int]] = field(default_factory=list, repr=False)

    def __getitem__(self, task: str) -> int:
        return self.allocation[task]

    def total_procs_allocated(self) -> int:
        return sum(self.allocation.values())


def _cpa_core(
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
    """The shared CPA allocation loop, with an incremental critical path.

    The graph structure and per-task times are flattened **once** into
    index arrays.  A grant to task ``b`` changes only ``b``'s time, so
    only the bottom levels of ``b`` and its ancestors, the top levels of
    ``b``'s descendants and ``b``'s own growth preference can move:

    * **bottom levels** are swept from ``b``'s topological position down
      to 0, recomputing only flagged tasks (``b``, then the predecessors
      of every task whose level moved);
    * **top levels** are swept from just after ``b`` up, starting from
      ``b``'s successors and flagging the successors of every task whose
      level moved;
    * the **preference order** — the tasks sorted by (gain, time, name),
      the key the task to grow maximises — is kept across grants; only
      ``b`` is re-inserted, and the next task to grow is the best one in
      that order that lies on a critical path and may still grow.

    A recomputed level uses the same floats and operations as a full
    re-walk, and a skipped one has inputs that did not change since it
    was computed, so allocations, iteration counts and traces equal the
    full re-walk's bit for bit.  The first iteration flags every task.
    A user-supplied ``edge_time`` callable is re-evaluated every
    iteration (it may read the evolving allocation), and every task is
    then flagged again; the built-in allocators pass ``None``, whose
    zero costs stay static.
    """
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

    # ---- one-time structure flattening ---- #
    topo = [index[n] for n in graph.topological_order()]
    pos = [0] * n_tasks
    for p, i in enumerate(topo):
        pos[i] = p
    preds: list[list[int]] = [[] for _ in range(n_tasks)]
    succs: list[list[int]] = [[] for _ in range(n_tasks)]
    # edge costs aligned with the preds/succs adjacency
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

    # per-task times under the current (and next) allocation — the only
    # model evaluations each iteration needs are for the task that grew
    cur_time = [model.time(t, 1) for t in tasks]
    next_time = [model.time(t, 2) if total_procs > 1 else 0.0 for t in tasks]

    p_eff = effective_processor_count(graph, total_procs, area_policy)
    total_work = sum(model.work(t, 1) for t in tasks)
    if max_iterations is None:
        # each task can grow at most to P processors
        max_iterations = n_tasks * total_procs

    # growth preference: the tasks sorted by the key the task to grow
    # maximises — gain, then time, then name — so the best comes last.
    # Tasks at P processors can never grow again and leave the order.
    def pref_key(i: int) -> tuple[float, float, str, int]:
        return (cur_time[i] - next_time[i], cur_time[i], names[i], i)

    order = sorted(map(pref_key, range(n_tasks))) if total_procs > 1 else []

    trace: list[tuple[str, int]] = []
    iterations = 0
    cp_len = 0.0
    area = 0.0
    converged = False
    bl = [0.0] * n_tasks
    tl = [0.0] * n_tasks

    while iterations < max_iterations:
        if not iterations or edge_time is not None:
            # recompute every level: on the first iteration, and on every
            # one under a user-supplied edge_time, which may read the
            # evolving allocation and is re-evaluated first
            if iterations:
                fill_edge_costs()
            # tasks whose bottom / top level must be recomputed, their
            # counts, and the topological positions the sweeps start
            # from; the two sweeps keep separate flags
            bl_flag = [True] * n_tasks
            tl_flag = [True] * n_tasks
            bl_todo = tl_todo = n_tasks
            bl_from, tl_from = n_tasks - 1, 0
        p = bl_from
        while bl_todo:
            i = topo[p]
            p -= 1
            if not bl_flag[i]:
                continue
            bl_flag[i] = False
            bl_todo -= 1
            tail = 0.0
            for j, c in zip(succs[i], succ_cost[i]):
                v = c + bl[j]
                if v > tail:
                    tail = v
            v = cur_time[i] + tail
            if v != bl[i]:
                bl[i] = v
                for j in preds[i]:
                    if not bl_flag[j]:
                        bl_flag[j] = True
                        bl_todo += 1
        p = tl_from
        while tl_todo:
            i = topo[p]
            p += 1
            if not tl_flag[i]:
                continue
            tl_flag[i] = False
            tl_todo -= 1
            top = 0.0
            for j, c in zip(preds[i], pred_cost[i]):
                v = tl[j] + cur_time[j] + c
                if v > top:
                    top = v
            if top != tl[i]:
                tl[i] = top
                for j in succs[i]:
                    if not tl_flag[j]:
                        tl_flag[j] = True
                        tl_todo += 1
        cp_len = max((bl[e] for e in entries), default=0.0)
        area = total_work / p_eff
        if cp_len <= area + _TOL:
            converged = True
            break

        # the best task on a critical path that may still grow: the
        # largest execution-time reduction from one extra processor
        threshold = cp_len - _TOL * max(1.0, cp_len)
        for at in range(len(order) - 1, -1, -1):
            i = order[at][3]
            if tl[i] + bl[i] >= threshold and (
                    level_of is None
                    or level_used[level_of[i]] + 1 <= total_procs):
                best = i
                del order[at]
                break
        else:
            break

        t = tasks[best]
        # model.work, not alloc·time: custom models may define work
        # independently of time (the old loop called work() too)
        total_work += model.work(t, alloc[best] + 1) - model.work(t, alloc[best])
        alloc[best] += 1
        if level_of is not None:
            level_used[level_of[best]] += 1
        cur_time[best] = next_time[best]
        if alloc[best] < total_procs:
            next_time[best] = model.time(t, alloc[best] + 1)
            insort(order, pref_key(best))
        if keep_trace:
            trace.append((names[best], alloc[best]))
        iterations += 1
        bl_flag[best] = True
        bl_todo = 1
        bl_from = pos[best]
        for j in succs[best]:
            tl_flag[j] = True
        tl_todo = len(succs[best])
        tl_from = pos[best] + 1

    return AllocationResult(
        allocation={n: alloc[i] for i, n in enumerate(names)},
        iterations=iterations,
        cp_length=cp_len,
        avg_area=area,
        converged=converged,
        trace=trace,
    )


@register_allocator("cpa", description="plain CPA (P_eff = P)")
def cpa_allocation(graph: TaskGraph, model: PerformanceModel,
                   total_procs: int, **kwargs) -> AllocationResult:
    """Plain CPA allocation (``P_eff = P``)."""
    return _cpa_core(graph, model, total_procs,
                     area_policy="total", level_cap=False, **kwargs)


@register_allocator("hcpa",
                    description="HCPA: CPA with the average-area bias fix "
                                "(the allocator RATS builds on)")
def hcpa_allocation(graph: TaskGraph, model: PerformanceModel,
                    total_procs: int, *, area_policy: str = "ntasks",
                    **kwargs) -> AllocationResult:
    """HCPA allocation: CPA with the average-area bias fix (default
    ``P_eff = min(P, N)``)."""
    return _cpa_core(graph, model, total_procs,
                     area_policy=area_policy, level_cap=False, **kwargs)


@register_allocator("mcpa",
                    description="MCPA: CPA with per-level concurrency budgets")
def mcpa_allocation(graph: TaskGraph, model: PerformanceModel,
                    total_procs: int, **kwargs) -> AllocationResult:
    """MCPA allocation: CPA with per-level concurrency budgets."""
    return _cpa_core(graph, model, total_procs,
                     area_policy="total", level_cap=True, **kwargs)


@register_allocator("reference", aliases=("hcpa-ref",),
                    description="HCPA against a multi-cluster platform's "
                                "reference (fastest-member) model")
def _reference_allocator(graph: TaskGraph, model: PerformanceModel,
                         total_procs: int, **kwargs) -> AllocationResult:
    # the registry signature of repro.scheduling.multicluster's
    # reference_allocation(): the experiment runner hands a multi-cluster
    # platform's reference performance model and global processor count
    # to every allocator, so the reference allocation is HCPA verbatim
    return hcpa_allocation(graph, model, total_procs, **kwargs)
