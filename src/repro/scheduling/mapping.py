"""Step two of two-step scheduling: list-scheduling task mapping (§II-C).

Tasks are mapped in order of decreasing *bottom level* (distance to the
graph exit), "accounting for data communication and data redistribution
costs": the estimated start of a task is
``max(max_pred(finish_pred + redistribution estimate), processors free)``
and its finish adds the Amdahl execution time.

Two candidate-generation policies are available:

* ``"earliest"`` (default — the classic CPA/MCPA/HCPA mapping this paper
  compares against): the ``n`` earliest-available processors.  The chosen
  set is rank-ordered with
  :func:`~repro.redistribution.remap.align_receivers` against the
  predecessor shipping the most data, because the *redistribution
  algorithm* itself maximises self-communication (§II-A) — but which
  processors participate is decided by availability alone, ignoring
  redistribution.
* ``"rich"`` (an ablation extension, not the paper's baseline): additionally
  tries, for each predecessor, its processor set truncated to ``n``
  (prefix, which keeps block layouts aligned) or extended with the
  earliest-available other processors, keeping the earliest estimated
  finish.  This bakes redistribution-awareness into the *mapping* while
  leaving allocations untouched, which is useful to quantify how much of
  RATS's gain comes from allocation adaptation versus mere set reuse.

:class:`ListScheduler` exposes the hooks (:meth:`sort_ready`,
:meth:`map_task`) that :class:`repro.core.rats.RATSScheduler` overrides to
implement Algorithm 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.dag.analysis import bottom_levels
from repro.dag.task import TaskGraph
from repro.model.amdahl import PerformanceModel
from repro.platforms.cluster import Cluster
from repro.redistribution.cost import RedistributionCost
from repro.redistribution.remap import align_receivers
from repro.registry import register_scheduler
from repro.scheduling.avail import AvailabilityIndex, seed_proc_avail
from repro.scheduling.schedule import Schedule, ScheduleEntry

__all__ = ["MappingDecision", "ListScheduler"]


@dataclass(frozen=True)
class MappingDecision:
    """A fully-priced candidate placement for one task."""

    procs: tuple[int, ...]
    start: float
    finish: float
    data_ready: float
    remote_bytes: float

    @property
    def nprocs(self) -> int:
        return len(self.procs)


class ListScheduler:
    """Bottom-level-ordered list scheduling with earliest-finish selection.

    This is the mapping procedure shared by CPA, MCPA and HCPA (§II-C); the
    baseline "HCPA" of the paper's evaluation is
    ``ListScheduler(graph, cluster, model, hcpa_allocation(...).allocation)``.

    Parameters
    ----------
    graph, cluster, model:
        The application, the platform and the performance model.
    allocation:
        Processor count per task from step one.  The scheduler copies it;
        subclasses (RATS) may adapt individual entries while mapping.
    redist:
        Redistribution-cost estimator (defaults to a fresh one for the
        cluster).
    proc_release:
        Per-processor earliest-availability times seeding
        :attr:`proc_avail` (length ``cluster.num_procs``).  Defaults to
        all zeros — the batch case.  The online engine passes the
        residual platform state here, so a job scheduled mid-stream is
        priced against the processors' *current* backlog instead of an
        empty platform.
    priority_edge_costs:
        Whether bottom-level priorities include a-priori edge communication
        estimates (the list scheduling of [7] accounts for communication).
    candidates:
        Candidate-generation policy: ``"earliest"`` (the paper's baseline)
        or ``"rich"`` (redistribution-aware set reuse, for ablations).
    avail_index:
        ``True`` (default) keeps the k-earliest selection on an
        :class:`~repro.scheduling.avail.AvailabilityIndex` — same sets,
        same schedules, O(k log P) instead of scanning every processor
        per probe.  Pass an existing index to share a warm one across
        jobs (the online engine does; it is reseeded to this job's
        ``proc_release`` view), or ``False`` for the reference scan.

    Every candidate placement is priced edge by edge through
    :meth:`~repro.redistribution.cost.RedistributionCost.time` and
    :meth:`~repro.redistribution.cost.RedistributionCost.remote_bytes`,
    one memoised exact pricer on every topology.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cluster: Cluster,
        model: PerformanceModel,
        allocation: Mapping[str, int],
        *,
        redist: RedistributionCost | None = None,
        proc_release: Sequence[float] | None = None,
        priority_edge_costs: bool = True,
        candidates: str = "earliest",
        avail_index: bool | AvailabilityIndex = True,
    ) -> None:
        if candidates not in ("earliest", "rich"):
            raise ValueError(f"unknown candidate policy {candidates!r}")
        self.candidate_policy = candidates
        self.graph = graph
        self.cluster = cluster
        self.model = model
        self.allocation = dict(allocation)
        for name in graph.task_names():
            if name not in self.allocation:
                raise ValueError(f"allocation missing task {name!r}")
            n = self.allocation[name]
            if not 1 <= n <= cluster.num_procs:
                raise ValueError(
                    f"allocation for {name!r} out of range: {n}")
        self.redist = redist or RedistributionCost(cluster)
        self.proc_avail: list[float] = seed_proc_avail(proc_release,
                                                       cluster.num_procs)
        if isinstance(avail_index, AvailabilityIndex):
            if avail_index.num_procs != cluster.num_procs:
                raise ValueError(
                    f"shared availability index covers "
                    f"{avail_index.num_procs} processors, platform has "
                    f"{cluster.num_procs}")
            avail_index.reseed(self.proc_avail)
            self._avail: AvailabilityIndex | None = avail_index
        elif avail_index:
            self._avail = AvailabilityIndex.for_platform(
                cluster, self.proc_avail)
        else:
            self._avail = None
        self.schedule = Schedule(graph=graph, cluster=cluster)
        self.priorities = self._compute_priorities(priority_edge_costs)

    # ------------------------------------------------------------------ #
    # execution-time hooks (overridden by heterogeneous platforms)
    # ------------------------------------------------------------------ #
    def exec_time(self, name: str, procs: Sequence[int]) -> float:
        """Execution time of ``name`` on the concrete set ``procs``.

        The homogeneous default only depends on the count; the multi-cluster
        scheduler overrides this to account for per-cluster speeds.
        """
        return self.model.time(self.graph.task(name), len(procs))

    def exec_time_count(self, name: str, nprocs: int) -> float:
        """Execution time for a processor *count* (reference speed)."""
        return self.model.time(self.graph.task(name), nprocs)

    def work_of(self, name: str, procs: Sequence[int]) -> float:
        """Work ``|procs| · T`` of ``name`` on the concrete set ``procs``."""
        return len(procs) * self.exec_time(name, procs)

    # ------------------------------------------------------------------ #
    # priorities
    # ------------------------------------------------------------------ #
    def _compute_priorities(self, with_edges: bool) -> dict[str, float]:
        def node_time(n: str) -> float:
            return self.exec_time_count(n, self.allocation[n])

        edge_time = None
        if with_edges:
            def edge_time(u: str, v: str) -> float:
                return self.redist.average_edge_time(self.graph.edge_bytes(u, v))

        return bottom_levels(self.graph, node_time, edge_time)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> Schedule:
        """Map every task; returns the completed (validated) schedule."""
        order = self.graph.task_names()  # deterministic iteration order
        unscheduled = set(order)
        while unscheduled:
            ready = [
                n for n in order
                if n in unscheduled
                and all(p in self.schedule for p in self.graph.predecessors(n))
            ]
            if not ready:  # pragma: no cover - graph is a DAG, cannot happen
                raise RuntimeError("no ready task but unscheduled tasks remain")
            for name in self.iter_ready(ready):
                self.map_task(name)
                unscheduled.discard(name)
        self.schedule.validate()
        return self.schedule

    def iter_ready(self, ready: list[str]):
        """Yield the current wave of ready tasks in mapping order.

        The base implementation fixes the order up front (priorities do not
        change while mapping); RATS resorts after allocation adaptations.
        """
        return iter(self.sort_ready(ready))

    def sort_ready(self, ready: list[str]) -> list[str]:
        """Decreasing bottom level, name as deterministic tie-break."""
        return sorted(ready, key=lambda n: (-self.priorities[n], n))

    # ------------------------------------------------------------------ #
    # mapping one task
    # ------------------------------------------------------------------ #
    def map_task(self, name: str) -> ScheduleEntry:
        decision = self.best_decision(name, self.allocation[name])
        return self.commit(name, decision)

    def commit(self, name: str, decision: MappingDecision) -> ScheduleEntry:
        entry = ScheduleEntry(task=name, procs=decision.procs,
                              start=decision.start, finish=decision.finish)
        self.schedule.add(entry)
        self.allocation[name] = decision.nprocs
        for p in decision.procs:
            self.proc_avail[p] = decision.finish
        if self._avail is not None:
            self._avail.update_many(decision.procs, decision.finish)
        return entry

    def best_decision(self, name: str, nprocs: int) -> MappingDecision:
        """Earliest-finish decision over the candidate processor sets."""
        best: MappingDecision | None = None
        for procs in self.candidate_sets(name, nprocs):
            d = self.decision_for_procs(name, procs)
            if (best is None
                    or (d.finish, d.remote_bytes, d.procs)
                    < (best.finish, best.remote_bytes, best.procs)):
                best = d
        assert best is not None
        return best

    # ------------------------------------------------------------------ #
    # candidate generation & pricing
    # ------------------------------------------------------------------ #
    def _earliest_procs(self, count: int,
                        prefer: Sequence[int] = ()) -> list[int]:
        """``count`` processors by availability; ``prefer`` wins ties.

        Selection instead of a full sort: ``heapq.nsmallest`` is
        documented to equal ``sorted(...)[:count]``, so the chosen sets —
        and thus every schedule — are unchanged, at ``O(P log count)``
        instead of ``O(P log P)`` per pricing probe.  With the
        availability index the scan disappears entirely: the index keeps
        the same ordering incrementally across commits.
        """
        if self._avail is not None:
            return self._avail.k_smallest(count, prefer)
        preferred = set(prefer)
        return heapq.nsmallest(
            count, range(self.cluster.num_procs),
            key=lambda p: (self.proc_avail[p], p not in preferred, p),
        )

    def candidate_sets(self, name: str, nprocs: int) -> list[tuple[int, ...]]:
        """Candidate ordered processor sets for ``name`` at size ``nprocs``."""
        preds = self.graph.predecessors(name)
        dominant: tuple[int, ...] | None = None
        if preds:
            dom = max(preds, key=lambda p: (self.graph.edge_bytes(p, name), p))
            dominant = self.schedule[dom].procs

        candidates: list[tuple[int, ...]] = []

        # earliest-available processors, aligned to the dominant producer
        # (the redistribution algorithm maximises self-communication, §II-A)
        base = self._earliest_procs(nprocs, prefer=dominant or ())
        if dominant is not None:
            candidates.append(align_receivers(dominant, base))
        else:
            candidates.append(tuple(sorted(base)))

        if self.candidate_policy == "earliest":
            return candidates

        # "rich" policy: predecessor-derived sets — prefix (pack-aligned)
        # or extension with earliest-available processors
        for pred in preds:
            pp = self.schedule[pred].procs
            if len(pp) >= nprocs:
                cand = pp[:nprocs]
            else:
                pool = self._earliest_procs(
                    min(self.cluster.num_procs, nprocs + len(pp)))
                pps = set(pp)
                extra = [p for p in pool if p not in pps][: nprocs - len(pp)]
                cand = tuple(pp) + tuple(extra)
            if len(cand) == nprocs:
                candidates.append(tuple(cand))

        # dedup, preserving order
        seen: set[tuple[int, ...]] = set()
        unique = []
        for c in candidates:
            if c not in seen:
                seen.add(c)
                unique.append(c)
        return unique

    def decision_for_procs(self, name: str,
                           procs: Sequence[int]) -> MappingDecision:
        """Price mapping ``name`` on the concrete ordered set ``procs``."""
        procs = tuple(procs)
        data_ready = 0.0
        remote = 0.0
        for pred in self.graph.predecessors(name):
            entry = self.schedule[pred]
            data = self.graph.edge_bytes(pred, name)
            rt = self.redist.time(entry.procs, procs, data)
            remote += self.redist.remote_bytes(entry.procs, procs, data)
            data_ready = max(data_ready, entry.finish + rt)
        proc_free = max(self.proc_avail[p] for p in procs)
        start = max(data_ready, proc_free)
        finish = start + self.exec_time(name, procs)
        return MappingDecision(procs=procs, start=start, finish=finish,
                               data_ready=data_ready, remote_bytes=remote)


@register_scheduler("list", description="plain list-scheduling mapping "
                    "(single cluster)")
def _build_list_scheduler(graph, platform, model, allocation, *,
                          params=None, redist=None, proc_release=None,
                          avail_index=True):
    return ListScheduler(graph, platform, model, allocation, redist=redist,
                         proc_release=proc_release, avail_index=avail_index)
