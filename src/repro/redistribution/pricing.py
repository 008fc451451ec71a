"""One exact redistribution pricer for every topology (§II-A, §IV-D).

The mapping step prices every candidate placement by the contention-free
cost of its incoming redistributions: the busiest link's bytes over its
capacity, or the slowest flow under its TCP rate cap if that is longer,
plus the longest route latency
(:func:`repro.network.flows.bottleneck_time_estimate_mapped`, kept as
the oracle).  That estimator resolves a route per (src, dst) pair and
sums bytes per link through a dict.  This pricer gets the same number
from one pass over the communication-matrix triples, on every topology
in the tree, because routes decompose by *route class*.

**Route classes.**  Each processor has a class, ``(cluster index,
cabinet or -1)`` (:meth:`~repro.platforms.topology.RouteCacheMixin.
route_class`).  For ``s != d`` the route is ``up(s)``, then middle links
fixed by ``(class(s), class(d))`` (cabinet uplinks, the WAN star), then
``down(d)``; latency, rate cap and every link capacity depend on the
class pair only, and NIC capacities on the processor's class only.  So
one ``pair_summary`` of a representative pair prices a whole class pair:
about 50 routes on ``grid5000-grid``, instead of one per priced pair.

**One pass, in entry order.**  Over the triples, skipping
self-communications: per-sender-rank sums (the ``up`` links — a set holds
each processor once, so rank and link coincide), per-receiver-rank sums
(``down`` links), per-middle-link sums, the crossing total (the remote
bytes), and per class pair the largest amount.  Then::

    time = max(max over links of bytes / capacity,
               max over class pairs of largest amount / rate cap)
           + max latency over the class pairs present

and 0 when nothing crosses.  Every link's sum accumulates in entry order,
exactly as the reference's per-link dict does, and ``max`` of floats is
exact — as is ``max(x) / c == max(x / c)`` for a positive ``c``, since
correctly rounded division is monotone — so the result equals the
reference bit for bit.
"""

from __future__ import annotations

from repro.redistribution.matrix import _comm_matrix_entries

__all__ = ["RoutePricer"]


def _crossing_stats(src: tuple[int, ...], dst: tuple[int, ...],
                    entries) -> tuple[float, float, float, float] | None:
    """Largest row sum, largest column sum, total and largest amount of
    the entries that cross the network, each summed in entry order;
    ``None`` when every entry stays local."""
    row = [0.0] * len(src)
    col = [0.0] * len(dst)
    total = 0.0
    amax = 0.0
    for i, j, a in entries:
        if src[i] != dst[j]:
            row[i] += a
            col[j] += a
            total += a
            if a > amax:
                amax = a
    if total == 0.0:
        return None
    return max(row), max(col), total, amax


def _nic_bound(sums: list[float], classes: list[int],
               caps: dict[int, float]) -> float:
    """Largest ``bytes / capacity`` over the NIC links of one side."""
    if classes.count(classes[0]) == len(classes):
        return max(sums) / caps[classes[0]]
    return max(b / caps[k] for b, k in zip(sums, classes) if b)


class RoutePricer:
    """``(time, remote bytes)`` of redistributions on one platform."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        # class-pair key → (middle link ids, latency, rate cap)
        self._pairs: dict[int, tuple[tuple[int, ...], float, float]] = {}
        # route class → capacity of its processors' up / down links
        self._up_cap: dict[int, float] = {}
        self._down_cap: dict[int, float] = {}
        # (bytes, p, q) → (largest row, largest column, total, largest
        # amount) of a redistribution between disjoint sets: nothing is
        # local, so these depend on the triples alone
        self._disjoint: dict[tuple[float, int, int],
                             tuple[float, float, float, float]] = {}

    def _pair(self, key: int, s: int, d: int, cs: int, cd: int):
        """Constants of the class pair ``key``, from the pair ``s → d``."""
        topo = self.cluster.topology
        indices, latency, cap = topo.pair_summary(s, d)
        caps = topo.capacity_list
        self._up_cap[cs] = caps[indices[0]]
        self._down_cap[cd] = caps[indices[-1]]
        hit = self._pairs[key] = (indices[1:-1], latency, cap)
        return hit

    def price(self, src: tuple[int, ...], dst: tuple[int, ...],
              data: float) -> tuple[float, float]:
        """Estimated time and remote bytes of ``src → dst`` for ``data``
        bytes; ``ValueError`` on a duplicate or out-of-range processor."""
        p, q = len(src), len(dst)
        entries = _comm_matrix_entries(data, p, q)
        topo = self.cluster.topology
        classes = topo.route_class_ids()
        n = len(classes)
        src_set = set(src)
        if len(src_set) != p or len(set(dst)) != q:
            raise ValueError(f"duplicate processor in {src} -> {dst}")
        if min(src) < 0 or min(dst) < 0 or max(src) >= n or max(dst) >= n:
            raise ValueError(f"processor out of range in {src} -> {dst}")
        if not entries:
            return 0.0, 0.0
        sc = [classes[x] for x in src]
        dc = [classes[x] for x in dst]
        cs, cd = sc[0], dc[0]
        if sc.count(cs) == p and dc.count(cd) == q:
            # one class pair: every middle link carries the total
            disjoint = src_set.isdisjoint(dst)
            stats = self._disjoint.get((data, p, q)) if disjoint else None
            if stats is None:
                stats = _crossing_stats(src, dst, entries)
                if stats is None:
                    return 0.0, 0.0
                if disjoint:
                    self._disjoint[(data, p, q)] = stats
            row_max, col_max, total, amax = stats
            key = cs * n + cd          # class ids are < n
            pair = self._pairs.get(key)
            if pair is None:
                s, d = next((src[i], dst[j]) for i, j, _ in entries
                            if src[i] != dst[j])
                pair = self._pair(key, s, d, cs, cd)
            mids, latency, cap = pair
            t = max(row_max / self._up_cap[cs], col_max / self._down_cap[cd])
            caps = topo.capacity_list
            for li in mids:
                v = total / caps[li]
                if v > t:
                    t = v
            if cap > 0:
                v = amax / cap
                if v > t:
                    t = v
            return t + latency, total

        # several class pairs: sum the middle links entry by entry
        row = [0.0] * p
        col = [0.0] * q
        total = 0.0
        pairs = self._pairs
        mid: dict[int, float] = {}
        largest: dict[int, list] = {}     # key → [largest amount, mids]
        for i, j, a in entries:
            s = src[i]
            d = dst[j]
            if s == d:
                continue
            row[i] += a
            col[j] += a
            total += a
            key = sc[i] * n + dc[j]
            hit = largest.get(key)
            if hit is None:
                pair = pairs.get(key)
                if pair is None:
                    pair = self._pair(key, s, d, sc[i], dc[j])
                largest[key] = hit = [a, pair[0]]
            elif a > hit[0]:
                hit[0] = a
            for li in hit[1]:
                mid[li] = mid.get(li, 0.0) + a
        if not largest:
            return 0.0, 0.0
        t = max(_nic_bound(row, sc, self._up_cap),
                _nic_bound(col, dc, self._down_cap))
        caps = topo.capacity_list
        for li, b in mid.items():
            v = b / caps[li]
            if v > t:
                t = v
        latency = 0.0
        for key, (amax, _) in largest.items():
            _, lat, cap = pairs[key]
            if lat > latency:
                latency = lat
            if cap > 0:
                v = amax / cap
                if v > t:
                    t = v
        return t + latency, total
