"""Scheduling on multi-cluster platforms (paper §V future work).

The two-step structure carries over with two changes, both borrowed from
HCPA's original heterogeneous design [N'takpé, Suter & Casanova 2007]:

* the **allocation** step runs against a *reference cluster* — the whole
  platform at its fastest member speed (``platform.performance_model()``);
* the **mapping** step *translates* the reference allocation per candidate
  cluster (``ceil(n_ref · speed_ref / speed_k)``) and evaluates one
  candidate processor set per cluster, keeping the earliest estimated
  finish.  Tasks never span clusters; inter-cluster edges pay WAN
  redistribution, which the usual estimator prices through the platform's
  topology.

:class:`MultiClusterRATSScheduler` layers the RATS adaptation on top: a
ready task may still be packed/stretched onto a predecessor's exact set —
which, on a multi-cluster platform, additionally avoids a WAN crossing
when the predecessor sits in another cluster than the default mapping
would have chosen.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.params import RATSParams
from repro.core.rats import RATSScheduler
from repro.dag.task import TaskGraph
from repro.model.amdahl import PerformanceModel
from repro.platforms.multicluster import MultiClusterPlatform
from repro.redistribution.cost import RedistributionCost
from repro.redistribution.remap import align_receivers
from repro.registry import register_scheduler
from repro.scheduling.allocation import AllocationResult, hcpa_allocation
from repro.scheduling.mapping import ListScheduler

__all__ = [
    "MultiClusterListScheduler",
    "MultiClusterRATSScheduler",
    "reference_allocation",
]


def reference_allocation(graph: TaskGraph, platform: MultiClusterPlatform,
                         **kwargs) -> AllocationResult:
    """HCPA allocation against the platform's reference cluster.

    Registered in :data:`repro.registry.allocators` as ``"reference"``
    (the registry-signature adapter lives in
    :mod:`repro.scheduling.allocation` to keep the allocator bootstrap
    import-cycle-free).
    """
    return hcpa_allocation(graph, platform.performance_model(),
                           platform.num_procs, **kwargs)


class _MultiClusterMixin:
    """Per-cluster execution times + one mapping candidate per cluster."""

    platform: MultiClusterPlatform

    # -- execution-time hooks ------------------------------------------ #
    def exec_time(self, name: str, procs: Sequence[int]) -> float:
        k, _ = self.platform.locate(procs[0])
        model = self.platform.model_for_cluster(k)
        return model.time(self.graph.task(name), len(procs))

    # exec_time_count stays on the reference model (self.model)

    # -- candidate generation ------------------------------------------ #
    def candidate_sets(self, name: str,
                       nprocs: int) -> list[tuple[int, ...]]:
        preds = self.graph.predecessors(name)
        dominant: tuple[int, ...] | None = None
        if preds:
            dom = max(preds,
                      key=lambda p: (self.graph.edge_bytes(p, name), p))
            dominant = self.schedule[dom].procs

        candidates: list[tuple[int, ...]] = []
        for k in range(len(self.platform.clusters)):
            count = self.platform.translate_allocation(nprocs, k)
            if self._avail is not None:
                # cluster-local index view; same (avail, preferred, id)
                # order as the sort below, without touching other
                # clusters' processors
                procs = self._avail.k_smallest(count, dominant or (),
                                               group=k)
            else:
                pool = sorted(self.platform.procs_of_cluster(k),
                              key=lambda p: (self.proc_avail[p],
                                             dominant is None
                                             or p not in dominant,
                                             p))
                procs = pool[:count]
            if len(procs) < count:  # pragma: no cover - translate clamps
                continue
            if dominant is not None:
                candidates.append(align_receivers(dominant, procs))
            else:
                candidates.append(tuple(sorted(procs)))
        seen: set[tuple[int, ...]] = set()
        unique = []
        for c in candidates:
            if c not in seen:
                seen.add(c)
                unique.append(c)
        return unique


class MultiClusterListScheduler(_MultiClusterMixin, ListScheduler):
    """Baseline list scheduling across clusters (translated HCPA)."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: MultiClusterPlatform,
        allocation: Mapping[str, int],
        *,
        model: PerformanceModel | None = None,
        redist: RedistributionCost | None = None,
        proc_release: Sequence[float] | None = None,
        priority_edge_costs: bool = True,
        avail_index=True,
    ) -> None:
        self.platform = platform
        super().__init__(
            graph,
            platform,  # quacks like a Cluster for every consumer below
            model or platform.performance_model(),
            allocation,
            redist=redist,
            proc_release=proc_release,
            priority_edge_costs=priority_edge_costs,
            avail_index=avail_index,
        )


class MultiClusterRATSScheduler(_MultiClusterMixin, RATSScheduler):
    """RATS (delta / time-cost) on a multi-cluster platform."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: MultiClusterPlatform,
        allocation: Mapping[str, int],
        params: RATSParams,
        *,
        model: PerformanceModel | None = None,
        redist: RedistributionCost | None = None,
        proc_release: Sequence[float] | None = None,
        priority_edge_costs: bool = True,
        avail_index=True,
    ) -> None:
        self.platform = platform
        super().__init__(
            graph,
            platform,
            model or platform.performance_model(),
            allocation,
            params,
            redist=redist,
            proc_release=proc_release,
            priority_edge_costs=priority_edge_costs,
            avail_index=avail_index,
        )


@register_scheduler("multicluster-list",
                    description="translated-HCPA list scheduling across "
                                "clusters")
def _build_mc_list_scheduler(graph, platform, model, allocation, *,
                             params=None, redist=None, proc_release=None,
                             avail_index=True):
    return MultiClusterListScheduler(graph, platform, allocation,
                                     model=model, redist=redist,
                                     proc_release=proc_release,
                                     avail_index=avail_index)


@register_scheduler("multicluster-rats",
                    description="RATS adaptation on a multi-cluster "
                                "platform (WAN-crossing aware)")
def _build_mc_rats_scheduler(graph, platform, model, allocation, *,
                             params=None, redist=None, proc_release=None,
                             avail_index=True):
    if params is None:
        raise ValueError("the multicluster-rats scheduler needs RATSParams")
    return MultiClusterRATSScheduler(graph, platform, allocation, params,
                                     model=model, redist=redist,
                                     proc_release=proc_release,
                                     avail_index=avail_index)
