"""Redistribution cost estimation for the scheduling algorithms.

This is the *contention-free* price a scheduler attaches to an edge when it
evaluates candidate mappings: zero when producer and consumer share the same
ordered processor set (§II-A), otherwise the bottleneck estimate of the
redistribution's own flows over the cluster topology.

The simulated makespan (:mod:`repro.simulation`) recomputes the same flows
*with* contention; the gap between the two is the estimation error discussed
in §IV-D.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.flows import FlowSpec
from repro.platforms.cluster import Cluster
from repro.redistribution.matrix import redistribution_flows
from repro.redistribution.pricing import RoutePricer

__all__ = ["RedistributionCost"]


class RedistributionCost:
    """Estimator bound to one cluster.

    The time estimate and the remote byte count are computed together by
    the exact single-pass pricer (:class:`~repro.redistribution.pricing.
    RoutePricer`) and memoised on the ordered-set key ``(src_procs,
    dst_procs, data_bytes)``: list scheduling probes the same
    predecessor/candidate pairs repeatedly, and RATS re-prices the same
    (pred set, candidate set, bytes) triples many times per adaptation
    loop.  A processor set holding a processor twice, or an id outside
    the platform, raises ``ValueError`` (also for zero bytes).
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        _Key = tuple[tuple[int, ...], tuple[int, ...], float]
        self._cache: dict[_Key, tuple[float, float]] = {}
        self._flow_cache: dict[_Key, tuple[FlowSpec, ...]] = {}
        self._pricer = RoutePricer(cluster)

    def _flows_cached(self, key) -> tuple[FlowSpec, ...]:
        hit = self._flow_cache.get(key)
        if hit is None:
            hit = tuple(redistribution_flows(key[0], key[1], key[2]))
            self._flow_cache[key] = hit
        return hit

    def flows(self, src_procs: Sequence[int], dst_procs: Sequence[int],
              data_bytes: float) -> list[FlowSpec]:
        """Concrete flows of the redistribution (self-comms dropped)."""
        return list(self._flows_cached(
            (tuple(src_procs), tuple(dst_procs), data_bytes)))

    def _priced(self, src_procs: Sequence[int], dst_procs: Sequence[int],
                data_bytes: float) -> tuple[float, float]:
        key = (tuple(src_procs), tuple(dst_procs), data_bytes)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._pricer.price(*key)
        return hit

    def time(self, src_procs: Sequence[int], dst_procs: Sequence[int],
             data_bytes: float) -> float:
        """Estimated duration; 0 for identical ordered sets or no data."""
        return self._priced(src_procs, dst_procs, data_bytes)[0]

    def remote_bytes(self, src_procs: Sequence[int], dst_procs: Sequence[int],
                     data_bytes: float) -> float:
        """Bytes that actually cross the network (excludes self-comm)."""
        return self._priced(src_procs, dst_procs, data_bytes)[1]

    def price_batch(self, src_procs: Sequence[int],
                    dst_list: Sequence[Sequence[int]],
                    data_bytes: float) -> tuple[list[float], list[float]]:
        """:meth:`time` and :meth:`remote_bytes` of every candidate
        receiver set, in order (a loop over the same memoised pricer)."""
        priced = [self._priced(src_procs, dst, data_bytes)
                  for dst in dst_list]
        return [t for t, _ in priced], [r for _, r in priced]

    def average_edge_time(self, data_bytes: float) -> float:
        """Platform-level a-priori estimate of an edge's communication time.

        Used for the bottom-level priorities before any mapping exists:
        ships the full dataset once across one NIC at effective bandwidth.
        """
        if data_bytes == 0:
            return 0.0
        bw = self.cluster.bandwidth_Bps
        return data_bytes / bw + self.cluster.latency_s
