"""Multi-cluster platforms — the paper's §V future work, implemented.

"As a future work we aim at extending this work to multi-cluster platforms
in which heterogeneity and high latency network connections have to be
taken into account."

A :class:`MultiClusterPlatform` joins several (possibly different-speed)
:class:`~repro.platforms.cluster.Cluster` instances through a WAN backbone
modelled as a star: each cluster owns a WAN uplink/downlink pair hanging
off a contention-free core.  WAN links have high latency, so this is where
the SimGrid empirical bandwidth cap ``β' = min(β, Wmax/RTT)`` actually
binds (on a 10 ms one-way WAN, a 4 MiB window caps a flow at ≈ 200 MB/s —
and at ≈ 20 MB/s for 100 ms).

Processors get *global* indices: cluster ``k``'s processor ``i`` maps to
``offset_k + i``.  Data-parallel tasks never span clusters (their internal
communication pattern would be dominated by the WAN), which is the standard
assumption of HCPA's own multi-cluster work — so the scheduling question
becomes *which cluster* and *which processors inside it*.

The class mirrors the parts of the :class:`Cluster` interface the mapping,
redistribution and simulation layers rely on (``num_procs``, ``topology``,
``bandwidth_Bps``, ``latency_s``, ``performance_model``), so schedules on a
multi-cluster platform flow through the same simulator unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from repro.model.amdahl import AmdahlModel
from repro.platforms.cluster import GIGABIT_BPS, Cluster
from repro.platforms.topology import LinkId, Route, RouteCacheMixin
from repro.registry import platforms

__all__ = ["MultiClusterPlatform", "MultiClusterTopology"]


class MultiClusterTopology(RouteCacheMixin):
    """Routing and link capacities across a star-of-clusters WAN."""

    def __init__(self, platform: "MultiClusterPlatform") -> None:
        self.platform = platform
        self.capacities: dict[LinkId, float] = {}
        # per-node NIC links (global ids) and per-cluster cabinet links
        for k, cluster in enumerate(platform.clusters):
            offset = platform.offsets[k]
            for p in range(cluster.num_procs):
                self.capacities[("nic_up", offset + p)] = cluster.bandwidth_Bps
                self.capacities[("nic_down", offset + p)] = cluster.bandwidth_Bps
            if cluster.is_hierarchical:
                assert cluster.cabinets is not None
                for c in range(cluster.cabinets):
                    # cabinet link ids are namespaced by cluster index
                    self.capacities[("cab_up", k * 1000 + c)] = \
                        cluster.bandwidth_Bps
                    self.capacities[("cab_down", k * 1000 + c)] = \
                        cluster.bandwidth_Bps
            self.capacities[("wan_up", k)] = platform.wan_bandwidth_Bps
            self.capacities[("wan_down", k)] = platform.wan_bandwidth_Bps

        self._init_route_caches(platform.num_procs)

    # ------------------------------------------------------------------ #
    def route(self, src: int, dst: int) -> Route:
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        platform = self.platform
        if src == dst:
            route = Route((), 0.0, float("inf"))
        else:
            ks, ps = platform.locate(src)
            kd, pd = platform.locate(dst)
            links: list[LinkId] = [("nic_up", src)]
            cs = platform.clusters[ks]
            latency = cs.latency_s
            if ks == kd:
                # intra-cluster: replicate the Cluster routing at global ids
                c_src = cs.cabinet_of(ps)
                c_dst = cs.cabinet_of(pd)
                if c_src != c_dst:
                    links.append(("cab_up", ks * 1000 + c_src))
                    links.append(("cab_down", ks * 1000 + c_dst))
                    latency += cs.latency_s
            else:
                cd = platform.clusters[kd]
                # leave the source cluster (through its cabinet layer)
                c_src = cs.cabinet_of(ps)
                if cs.is_hierarchical:
                    links.append(("cab_up", ks * 1000 + c_src))
                links.append(("wan_up", ks))
                links.append(("wan_down", kd))
                c_dst = cd.cabinet_of(pd)
                if cd.is_hierarchical:
                    links.append(("cab_down", kd * 1000 + c_dst))
                latency += platform.wan_latency_s + cd.latency_s
            links.append(("nic_down", dst))
            rtt = 2.0 * latency
            cap = min(min(self.capacities[l] for l in links),
                      platform.tcp_window_bytes / rtt if rtt > 0
                      else float("inf"))
            route = Route(tuple(links), latency, cap)
        self._route_cache[key] = route
        return route

    def route_class(self, proc: int) -> tuple[int, int]:
        k, local = self.platform.locate(proc)
        cluster = self.platform.clusters[k]
        return (k, cluster.cabinet_of(local) if cluster.is_hierarchical
                else -1)

    def effective_bandwidth(self, src: int, dst: int) -> float:
        r = self.route(src, dst)
        return r.rate_cap_Bps if not r.is_local else float("inf")


@dataclass(frozen=True)
class MultiClusterPlatform:
    """Several clusters joined by a high-latency WAN backbone.

    Parameters
    ----------
    clusters:
        Member clusters (Table II presets or custom); speeds may differ.
    wan_latency_s:
        One-way latency of a WAN hop (default 10 ms — three orders of
        magnitude above the intra-cluster 100 µs).
    wan_bandwidth_Bps:
        Backbone link bandwidth (default 1 Gb/s).
    tcp_window_bytes:
        ``Wmax`` for the per-flow empirical cap; on WAN RTTs this is the
        binding constraint.
    """

    clusters: tuple[Cluster, ...]
    wan_latency_s: float = 10e-3
    wan_bandwidth_Bps: float = GIGABIT_BPS
    tcp_window_bytes: float = 4 * 1024 * 1024
    name: str = "multicluster"
    _topology: MultiClusterTopology | None = field(
        default=None, repr=False, compare=False)

    #: Routes the experiment runner to the ``multicluster-*`` entries of
    #: :data:`repro.registry.schedulers` (plain clusters have no attribute
    #: and default to ``"single"``).
    scheduler_kind = "multicluster"

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("need at least one cluster")
        if self.wan_latency_s < 0 or self.wan_bandwidth_Bps <= 0:
            raise ValueError("invalid WAN parameters")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")

    # ------------------------------------------------------------------ #
    # cached_property stores straight into the instance __dict__, which
    # is fine on a frozen dataclass (no __setattr__ involved) — these are
    # hot in route construction on wide platforms, where recomputing the
    # offset table per lookup made `locate` O(clusters²)
    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = []
        total = 0
        for c in self.clusters:
            out.append(total)
            total += c.num_procs
        return tuple(out)

    @cached_property
    def num_procs(self) -> int:
        return sum(c.num_procs for c in self.clusters)

    def locate(self, proc: int) -> tuple[int, int]:
        """Global processor id → (cluster index, local processor id)."""
        if not 0 <= proc < self.num_procs:
            raise ValueError(f"processor {proc} out of range")
        k = bisect_right(self.offsets, proc) - 1
        return k, proc - self.offsets[k]

    def cluster_of(self, proc: int) -> Cluster:
        return self.clusters[self.locate(proc)[0]]

    def procs_of_cluster(self, k: int) -> range:
        off = self.offsets[k]
        return range(off, off + self.clusters[k].num_procs)

    def speed_of(self, proc: int) -> float:
        return self.cluster_of(proc).speed_flops

    # ------------------------------------------------------------------ #
    @property
    def reference_speed(self) -> float:
        """Fastest member speed — HCPA's reference-cluster abstraction."""
        return max(c.speed_flops for c in self.clusters)

    def performance_model(self) -> AmdahlModel:
        """Amdahl model at the *reference* speed (used by the allocation
        step; the mapping step rescales per cluster)."""
        return AmdahlModel(self.reference_speed)

    def model_for_cluster(self, k: int) -> AmdahlModel:
        return AmdahlModel(self.clusters[k].speed_flops)

    def translate_allocation(self, n_ref: int, k: int) -> int:
        """HCPA reference→actual allocation translation.

        A task allocated ``n_ref`` reference processors needs
        ``ceil(n_ref · speed_ref / speed_k)`` processors of cluster ``k``
        to deliver comparable computing power, clamped to the cluster size.
        """
        import math

        ratio = self.reference_speed / self.clusters[k].speed_flops
        return max(1, min(self.clusters[k].num_procs,
                          math.ceil(n_ref * ratio)))

    # ------------------------------------------------------------------ #
    @property
    def is_hierarchical(self) -> bool:
        return True

    @property
    def bandwidth_Bps(self) -> float:
        """A-priori edge-cost bandwidth: the most conservative NIC speed."""
        return min(c.bandwidth_Bps for c in self.clusters)

    @property
    def latency_s(self) -> float:
        """A-priori edge-cost latency (intra-cluster hop)."""
        return max(c.latency_s for c in self.clusters)

    @property
    def topology(self) -> MultiClusterTopology:
        if self._topology is None:
            object.__setattr__(self, "_topology",
                               MultiClusterTopology(self))
        assert self._topology is not None
        return self._topology

    def processors(self) -> range:
        return range(self.num_procs)

    def describe(self) -> str:
        parts = ", ".join(
            f"{c.name}({c.num_procs}@{c.speed_flops / 1e9:.2f}GF)"
            for c in self.clusters)
        return (f"{self.name}: [{parts}] over "
                f"{self.wan_latency_s * 1e3:g} ms WAN")


def _grid5000_grid() -> MultiClusterPlatform:
    # imported lazily: grid5000 registers its clusters on import, which
    # (during the platform registry's own bootstrap) must not recurse
    # through this module's top level
    from repro.platforms.grid5000 import CHTI, GRELON, GRILLON

    return MultiClusterPlatform(clusters=(CHTI, GRILLON, GRELON),
                                name="grid5000-grid")


platforms.register(
    "grid5000-grid", _grid5000_grid,
    description="Table II's three Grid'5000 clusters (187 procs) joined by "
                "a 10 ms WAN backbone")
