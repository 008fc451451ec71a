"""Flow descriptions and the contention-free time estimate used by schedulers.

Scheduling algorithms must price a redistribution *before* it happens and
without knowledge of concurrent traffic — exactly the situation discussed in
§IV-D ("the estimations of the redistribution time made in the time-cost
version do not take network contention into account").  The estimator here
considers the redistribution's own flows *in isolation* and charges its
bottleneck link:

    ``t ≈ max_link (bytes through link / capacity) + max route latency``

which is the completion time of the redistribution alone under fluid
Max-Min sharing when one link dominates, and a lower bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.platforms.cluster import Cluster

__all__ = ["FlowSpec", "bottleneck_time_estimate",
           "bottleneck_time_estimate_mapped"]


@dataclass(frozen=True)
class FlowSpec:
    """A point-to-point transfer of ``data_bytes`` from ``src`` to ``dst``."""

    src: int
    dst: int
    data_bytes: float

    def __post_init__(self) -> None:
        if self.data_bytes < 0:
            raise ValueError("data_bytes must be >= 0")


def bottleneck_time_estimate(flows: list[FlowSpec], cluster: Cluster) -> float:
    """Contention-free estimate of the completion time of a flow set.

    Self-communications (``src == dst``) are free.  Per-flow TCP rate caps
    are honoured: a flow can never finish faster than
    ``bytes / rate_cap``, so the estimate is the max of the link bottleneck
    and the slowest individual flow.

    This is a thin wrapper over :func:`bottleneck_time_estimate_mapped`.
    The schedulers price through :class:`~repro.redistribution.pricing.
    RoutePricer` instead, which computes the same estimate bit for bit in
    one pass per route class pair; this per-flow form is its test oracle.
    """
    return bottleneck_time_estimate_mapped(
        None, None, [(f.src, f.dst, f.data_bytes) for f in flows], cluster)


def bottleneck_time_estimate_mapped(
    src_procs: Sequence[int] | None,
    dst_procs: Sequence[int] | None,
    entries: Sequence[tuple[int, int, float]],
    cluster: Cluster,
) -> float:
    """:func:`bottleneck_time_estimate` over ``(i, j, amount)`` triples.

    ``entries`` are communication-matrix triples
    (:func:`repro.redistribution.matrix._comm_matrix_entries`); ``i`` /
    ``j`` index ``src_procs`` / ``dst_procs``, or are concrete node ids
    when the sequences are ``None``.  Each flow resolves its route through
    one fused ``pair_summary`` cache hit (integer link indices, latency,
    cap); per-link byte sums accumulate in flow order, exactly as the
    original FlowSpec loop did.
    """
    topo = cluster.topology
    pair_summary = topo.pair_summary
    link_bytes: dict[int, float] = {}
    get = link_bytes.get
    max_latency = 0.0
    slowest_flow = 0.0
    for i, j, data in entries:
        src = src_procs[i] if src_procs is not None else i
        dst = dst_procs[j] if dst_procs is not None else j
        if src == dst or data == 0:
            continue
        indices, latency, cap = pair_summary(src, dst)
        if latency > max_latency:
            max_latency = latency
        if cap > 0:
            v = data / cap
            if v > slowest_flow:
                slowest_flow = v
        for li in indices:
            link_bytes[li] = get(li, 0.0) + data
    if not link_bytes:
        return 0.0
    capacities = topo.capacity_list
    bottleneck = max(
        bytes_ / capacities[li] for li, bytes_ in link_bytes.items()
    )
    return max(bottleneck, slowest_flow) + max_latency
