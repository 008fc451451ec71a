"""RATS — Redistribution Aware Two-Step scheduling (paper Algorithm 1).

RATS keeps the two-step structure of CPA/HCPA but lets the *mapping* step
reconsider the allocations fixed by the first step:

1. compute the allocation with HCPA (§II-C);
2. while unscheduled tasks remain, take the wave of ready tasks, sort it by
   decreasing bottom level with the strategy's stable secondary sort
   (§III-C), and map each task: if a predecessor's allocation matches the
   *delta* or *time-cost* conditions, the task is mapped on that
   predecessor's exact processor set (making the edge's redistribution
   free); otherwise the plain HCPA mapping applies.

The scheduler records every adaptation in :attr:`RATSScheduler.adaptations`
so experiments can analyse how often packing/stretching fired.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.params import RATSParams
from repro.core.strategies import AdaptationRecord, make_strategy
from repro.dag.task import TaskGraph
from repro.model.amdahl import PerformanceModel
from repro.platforms.cluster import Cluster
from repro.redistribution.cost import RedistributionCost
from repro.registry import register_scheduler
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduleEntry

__all__ = ["RATSScheduler", "rats_schedule"]


class RATSScheduler(ListScheduler):
    """List scheduler with redistribution-aware allocation adaptation."""

    def __init__(
        self,
        graph: TaskGraph,
        cluster: Cluster,
        model: PerformanceModel,
        allocation: Mapping[str, int],
        params: RATSParams,
        *,
        redist: RedistributionCost | None = None,
        proc_release=None,
        priority_edge_costs: bool = True,
        avail_index=True,
    ) -> None:
        super().__init__(graph, cluster, model, allocation,
                         redist=redist, proc_release=proc_release,
                         priority_edge_costs=priority_edge_costs,
                         avail_index=avail_index)
        self.params = params
        self.strategy = make_strategy(params)
        self.adaptations: list[AdaptationRecord] = []
        #: memoised secondary-sort values: ``iter_ready`` re-sorts the
        #: ready list after every mapping, but a task's δ(t) / gain(t)
        #: only changes when one of its predecessors gets mapped — the
        #: cache is invalidated for the successors of each committed task.
        self._sort_cache: dict[str, float] = {}
        #: bumped whenever a cached sort value is invalidated — lets
        #: ``iter_ready`` skip re-sorts that could not change the order
        self._sort_epoch = 0
        #: predecessors whose allocation has been claimed by an adaptation;
        #: they are no longer adaptation targets (Algorithm 1, line 11 — a
        #: parent allocation backs at most one adapted child, preventing
        #: ready siblings from piling up on the same processor set).
        self.consumed_parents: set[str] = set()

    # ------------------------------------------------------------------ #
    # ready-list ordering (§III-C)
    # ------------------------------------------------------------------ #
    def sort_ready(self, ready: list[str]) -> list[str]:
        """Decreasing bottom level + stable strategy-specific secondary sort.

        The secondary key comes from the strategy object's
        ``secondary_sort`` hook (delta: increasing ``δ(t)``; time-cost:
        decreasing ``gain(t)``; custom strategies may omit it, falling back
        to the name tie-break).  The input order is preserved among full
        ties (Python's sort is stable), as required by §III-C.
        """
        secondary = getattr(self.strategy, "secondary_sort", None)
        if secondary is None:
            return super().sort_ready(ready)
        cache = self._sort_cache

        def value(n: str) -> float:
            v = cache.get(n)
            if v is None:
                v = secondary(self, n)
                cache[n] = v
            return v

        return sorted(ready, key=lambda n: (-self.priorities[n], value(n)))

    def iter_ready(self, ready: list[str]) -> Iterator[str]:
        """Pop ready tasks one at a time, re-sorting between mappings.

        Algorithm 1 (lines 11–12) recomputes the per-task values and resorts
        the ready list after a task is mapped onto a parent allocation —
        mapping decisions never alter predecessor *allocations* in this
        implementation, but re-sorting keeps the behaviour faithful.

        A re-sort can only change the order when some remaining task's
        memoised sort value was invalidated since the last sort (the keys
        are otherwise served from ``_sort_cache`` and Python's sort is
        stable), so it is skipped while ``_sort_epoch`` is unchanged.
        """
        remaining = self.sort_ready(list(ready))
        epoch = self._sort_epoch
        while remaining:
            name = remaining.pop(0)
            yield name
            if remaining and self._sort_epoch != epoch:
                remaining = self.sort_ready(remaining)
                epoch = self._sort_epoch

    # ------------------------------------------------------------------ #
    # mapping with adaptation (Algorithm 1, lines 9–15)
    # ------------------------------------------------------------------ #
    def map_task(self, name: str) -> ScheduleEntry:
        decision, record = self.strategy.decide(self, name)
        if record is not None:
            self.adaptations.append(record)
            self.consumed_parents.add(record.pred)
        entry = self.commit(name, decision)
        # mapping `name` changes δ(t) / gain(t) of its successors only
        for succ in self.graph.successors(name):
            if self._sort_cache.pop(succ, None) is not None:
                self._sort_epoch += 1
        return entry

    # ------------------------------------------------------------------ #
    def adaptation_summary(self) -> dict[str, int]:
        """Counts of adaptations by kind (``stretch`` / ``pack`` / ``same``)."""
        out = {"stretch": 0, "pack": 0, "same": 0}
        for r in self.adaptations:
            out[r.kind] += 1
        return out


def rats_schedule(
    graph: TaskGraph,
    cluster: Cluster,
    params: RATSParams,
    *,
    model: PerformanceModel | None = None,
    allocation: Mapping[str, int] | None = None,
    redist: RedistributionCost | None = None,
) -> Schedule:
    """One-call convenience: HCPA allocation + RATS mapping.

    >>> from repro.platforms import GRILLON          # doctest: +SKIP
    >>> sched = rats_schedule(graph, GRILLON, RATSParams("timecost"))
    """
    model = model or cluster.performance_model()
    if allocation is None:
        allocation = hcpa_allocation(graph, model, cluster.num_procs).allocation
    scheduler = RATSScheduler(graph, cluster, model, allocation, params,
                              redist=redist)
    return scheduler.run()


@register_scheduler("rats", description="RATS redistribution-aware "
                    "adaptation (single cluster)")
def _build_rats_scheduler(graph, platform, model, allocation, *,
                          params=None, redist=None, proc_release=None,
                          avail_index=True):
    if params is None:
        raise ValueError("the rats scheduler needs RATSParams")
    return RATSScheduler(graph, platform, model, allocation, params,
                         redist=redist, proc_release=proc_release,
                         avail_index=avail_index)
