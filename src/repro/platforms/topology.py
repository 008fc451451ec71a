"""Network topology: links and routes of a cluster (paper §II-B, §IV-A).

Link naming
-----------
Every node ``p`` owns a full-duplex private link modelled as two directed
half-links, ``("nic_up", p)`` for sends and ``("nic_down", p)`` for
receives — this is what makes the model *bounded multi-port*: any number of
concurrent flows, but each node's aggregate send (resp. receive) rate is
bounded by its link bandwidth.

Hierarchical clusters add per-cabinet uplinks ``("cab_up", c)`` /
``("cab_down", c)`` crossed only by inter-cabinet flows; the top switch
backplane is assumed contention-free (as is usual for switched gigabit
fabrics).

Latency is split evenly over the two NIC half-links so that an
intra-cluster transfer sees the paper's one-way latency (100 µs) and an
inter-cabinet transfer sees twice that.

The SimGrid v3.3 empirical bandwidth correction is applied **per flow**:
``rate ≤ Wmax / RTT`` with ``RTT`` twice the route latency (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.cluster import Cluster

__all__ = ["LinkId", "Route", "RouteCacheMixin", "Topology"]

#: A link identifier: ``(kind, index)``.
LinkId = tuple[str, int]


@dataclass(frozen=True)
class Route:
    """The path of a point-to-point flow.

    Attributes
    ----------
    links:
        Ordered link identifiers the flow crosses (empty for a
        self-communication, which is free).
    latency_s:
        One-way latency of the route.
    rate_cap_Bps:
        Per-flow rate bound ``min(β, Wmax / RTT)``.
    """

    links: tuple[LinkId, ...]
    latency_s: float
    rate_cap_Bps: float

    @property
    def is_local(self) -> bool:
        return not self.links


class RouteCacheMixin:
    """Shared link-index / route caching for topology classes.

    Expects the concrete class to provide ``capacities`` (LinkId →
    capacity) and ``route(src, dst)``; :meth:`_init_route_caches` wires
    the link indexing and the caches.  Both :class:`Topology` and
    :class:`~repro.platforms.multicluster.MultiClusterTopology` inherit
    this, so the fused per-pair summary the schedulers' pricing relies
    on cannot drift between the two.
    """

    capacities: dict[LinkId, float]

    def _init_route_caches(self, num_procs: int) -> None:
        self.num_procs = num_procs
        self._route_class_ids: list[int] | None = None
        # stable integer indexing of links for the vectorised solvers
        self.link_ids: list[LinkId] = list(self.capacities)
        self.link_index: dict[LinkId, int] = {
            lid: i for i, lid in enumerate(self.link_ids)
        }
        self._route_cache: dict[tuple[int, int], Route] = {}
        self._capacity_array = None
        self._capacity_list: list[float] | None = None
        self._route_idx_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._pair_summary_cache: dict[tuple[int, int],
                                       tuple[tuple[int, ...],
                                             float, float]] = {}

    @property
    def capacity_array(self):
        """Link capacities as a numpy array aligned with ``link_ids``."""
        if self._capacity_array is None:
            import numpy as np

            self._capacity_array = np.array(
                [self.capacities[lid] for lid in self.link_ids], dtype=float
            )
        return self._capacity_array

    @property
    def capacity_list(self) -> list[float]:
        """Capacities as plain floats (scalar hot loops avoid numpy)."""
        if self._capacity_list is None:
            self._capacity_list = [float(self.capacities[lid])
                                   for lid in self.link_ids]
        return self._capacity_list

    def route_indices(self, src: int, dst: int) -> tuple[int, ...]:
        """Integer link indices of the ``src → dst`` route."""
        key = (src, dst)
        hit = self._route_idx_cache.get(key)
        if hit is None:
            hit = tuple(self.link_index[lid]
                        for lid in self.route(src, dst).links)
            self._route_idx_cache[key] = hit
        return hit

    def pair_summary(self, src: int, dst: int) -> tuple[tuple[int, ...],
                                                        float, float]:
        """``(link indices, latency, rate cap)`` of the pair, one dict hit.

        The fused per-pair record behind the schedulers' bottleneck
        estimator, which prices the same (src, dst) pairs thousands of
        times per mapping run.
        """
        key = (src, dst)
        hit = self._pair_summary_cache.get(key)
        if hit is None:
            route = self.route(src, dst)
            hit = (self.route_indices(src, dst), route.latency_s,
                   route.rate_cap_Bps)
            self._pair_summary_cache[key] = hit
        return hit

    def route_class_ids(self) -> list[int]:
        """Per-processor index into the distinct :meth:`route_class`
        values (first-seen order), built once per topology."""
        if self._route_class_ids is None:
            ids: dict[tuple[int, int], int] = {}
            self._route_class_ids = [
                ids.setdefault(self.route_class(p), len(ids))
                for p in range(self.num_procs)]
        return self._route_class_ids

    def link_capacity(self, link: LinkId) -> float:
        return self.capacities[link]

    def route(self, src: int, dst: int) -> Route:  # pragma: no cover
        raise NotImplementedError

    def route_class(self, proc: int) -> tuple[int, int]:  # pragma: no cover
        """``(cluster index, cabinet or -1)`` of processor ``proc``.

        For ``s != d`` every route is ``s``'s own up link, then middle
        links fixed by the pair ``(route_class(s), route_class(d))``, then
        ``d``'s own down link.  The latency, the rate cap and every link
        capacity depend only on that class pair (the NIC capacities only
        on the processor's class), which is what lets the pricer
        (:mod:`repro.redistribution.pricing`) cost a redistribution from
        one route per class pair.
        """
        raise NotImplementedError


class Topology(RouteCacheMixin):
    """Link capacities and routing for one :class:`Cluster`."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.capacities: dict[LinkId, float] = {}
        bw = cluster.bandwidth_Bps
        for p in range(cluster.num_procs):
            self.capacities[("nic_up", p)] = bw
            self.capacities[("nic_down", p)] = bw
        if cluster.is_hierarchical:
            assert cluster.cabinets is not None
            for c in range(cluster.cabinets):
                self.capacities[("cab_up", c)] = bw
                self.capacities[("cab_down", c)] = bw
        self._init_route_caches(cluster.num_procs)

    def route(self, src: int, dst: int) -> Route:
        """Route of a flow from node ``src`` to node ``dst``.

        Self-communications (``src == dst``) are free (paper §II-A: no
        redistribution cost on the same processors) and get an empty route.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached

        cluster = self.cluster
        n = cluster.num_procs
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"processor out of range: {src}, {dst}")
        if src == dst:
            route = Route((), 0.0, float("inf"))
        else:
            links: list[LinkId] = [("nic_up", src)]
            latency = cluster.latency_s
            c_src, c_dst = cluster.cabinet_of(src), cluster.cabinet_of(dst)
            if c_src != c_dst:
                links.append(("cab_up", c_src))
                links.append(("cab_down", c_dst))
                latency += cluster.latency_s
            links.append(("nic_down", dst))
            rtt = 2.0 * latency
            cap = min(cluster.bandwidth_Bps,
                      cluster.tcp_window_bytes / rtt if rtt > 0 else float("inf"))
            route = Route(tuple(links), latency, cap)
        self._route_cache[key] = route
        return route

    def route_class(self, proc: int) -> tuple[int, int]:
        cluster = self.cluster
        if not 0 <= proc < cluster.num_procs:
            raise ValueError(f"processor out of range: {proc}")
        return (0, cluster.cabinet_of(proc) if cluster.is_hierarchical
                else -1)

    def effective_bandwidth(self, src: int, dst: int) -> float:
        """Bandwidth of an isolated ``src → dst`` flow."""
        r = self.route(src, dst)
        return r.rate_cap_Bps if not r.is_local else float("inf")
