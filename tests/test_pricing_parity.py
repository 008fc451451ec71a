"""Parity suites for the redistribution pricer and receiver alignment.

The mapping step prices every candidate placement by the contention-free
cost of its incoming redistributions.  Two oracles pin that price and the
receiver order it is computed for:

* :func:`repro.network.flows.bottleneck_time_estimate_mapped`, the
  per-entry, per-link estimator, and the remote-byte sum over the crossing
  communication-matrix entries (accumulated in entry order);
* ``_reference_align_receivers`` below, the quadratic greedy alignment
  kept verbatim as the oracle of :func:`repro.redistribution.remap.
  align_receivers`.

``RedistributionCost.time`` / ``remote_bytes`` / ``price_batch`` must
equal the first bit for bit on every topology in the tree (flat clusters,
cabinet hierarchies, multi-cluster grids with hierarchical members, and
sets that span clusters), and ``align_receivers`` must equal the second.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.flows import bottleneck_time_estimate_mapped
from repro.platforms.cluster import Cluster
from repro.platforms.grid5000 import CHTI, GRELON, GRILLON
from repro.platforms.multicluster import MultiClusterPlatform
from repro.redistribution.cost import RedistributionCost
from repro.redistribution.matrix import _comm_matrix_entries
from repro.redistribution.remap import align_receivers
from repro.registry import platforms


def _mixed_platform() -> MultiClusterPlatform:
    """Three members mixing flat and cabinet networks, unequal NICs, and a
    WAN slow enough for the per-flow TCP cap to bind."""
    return MultiClusterPlatform(clusters=(
        Cluster(name="pp-flat", num_procs=9, speed_flops=2e9,
                bandwidth_Bps=2.5e8),
        Cluster(name="pp-cab", num_procs=23, speed_flops=1e9,
                latency_s=2e-4, bandwidth_Bps=1e8, cabinets=4,
                cabinet_size=6),
        Cluster(name="pp-small", num_procs=7, speed_flops=3e9,
                bandwidth_Bps=5e8)),
        wan_latency_s=50e-3, wan_bandwidth_Bps=8e7, name="pp-mixed")


def _fast_wan_platform() -> MultiClusterPlatform:
    """Unequal NICs behind a WAN fast enough for the NICs to bind."""
    return MultiClusterPlatform(clusters=(
        Cluster(name="pp-slow-nic", num_procs=6, speed_flops=1e9,
                bandwidth_Bps=1e8),
        Cluster(name="pp-fast-nic", num_procs=8, speed_flops=1e9,
                bandwidth_Bps=4e8, cabinets=2, cabinet_size=4)),
        wan_latency_s=1e-4, wan_bandwidth_Bps=1e10, name="pp-fast-wan")


PLATFORMS = {
    "flat": Cluster(name="pp-flat16", num_procs=16, speed_flops=1e9),
    "cabinets-23-in-4x6": Cluster(name="pp-cab23", num_procs=23,
                                  speed_flops=1e9, cabinets=4,
                                  cabinet_size=6),
    "grelon": GRELON,
    "grid5000-grid": platforms.build("grid5000-grid"),
    "mixed": _mixed_platform(),
    "fast-wan": _fast_wan_platform(),
}


def _ranges(platform) -> list[range]:
    """Processor ranges of the platform's member clusters."""
    if hasattr(platform, "clusters"):
        return [platform.procs_of_cluster(k)
                for k in range(len(platform.clusters))]
    return [range(platform.num_procs)]


def _reference_remote_bytes(src, dst, data) -> float:
    total = 0.0
    for i, j, amount in _comm_matrix_entries(data, len(src), len(dst)):
        if src[i] != dst[j]:
            total += amount
    return total


def _reference_price(platform, src, dst, data) -> tuple[float, float]:
    entries = _comm_matrix_entries(data, len(src), len(dst))
    return (bottleneck_time_estimate_mapped(src, dst, entries, platform),
            _reference_remote_bytes(src, dst, data))


@st.composite
def _pricing_case(draw):
    name = draw(st.sampled_from(sorted(PLATFORMS)))
    platform = PLATFORMS[name]
    ranges = _ranges(platform)
    everything = range(platform.num_procs)
    kind = draw(st.sampled_from(["disjoint", "overlapping", "identical",
                                 "permuted", "other-cluster", "spanning"]))

    def proc_set(pool, max_size=12):
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=min(max_size, len(pool)),
                                   unique=True)))

    home = draw(st.sampled_from(ranges))
    src = proc_set(list(home))
    if kind == "disjoint":
        pool = [x for x in home if x not in src] or \
            [x for x in everything if x not in src]
        dst = proc_set(pool)
    elif kind == "overlapping":
        keep = draw(st.lists(st.sampled_from(src), min_size=1,
                             unique=True))
        extra = proc_set([x for x in home if x not in src] or list(src))
        dst = tuple(dict.fromkeys(
            draw(st.permutations(list(keep) + [x for x in extra
                                               if x not in keep]))))
    elif kind == "identical":
        dst = src
    elif kind == "permuted":
        dst = tuple(draw(st.permutations(list(src))))
    elif kind == "other-cluster":
        dst = proc_set(list(draw(st.sampled_from(ranges))))
    else:   # sets that span clusters: the public API allows them
        src = proc_set(list(everything), 20)
        dst = proc_set(list(everything), 20)
    data = draw(st.one_of(st.floats(1.0, 1e10),
                          st.integers(1, 10**10).map(float)))
    return name, src, dst, data


class TestPricingParity:
    @given(_pricing_case())
    @settings(max_examples=400, deadline=None)
    @example(("grelon", (0, 1, 2, 30), (2, 50, 100, 1, 119), 123456789.0))
    @example(("grid5000-grid", (0, 5, 30, 120), (70, 186, 5), 3.3e6))
    @example(("mixed", (3, 20, 35, 38), (20, 3, 9, 14), 1e9))
    @example(("fast-wan", (8, 9, 10), (0,), 1e8))
    @example(("fast-wan", (1,), (6, 7, 12, 13), 1e8))
    def test_time_and_remote_bytes_match_the_estimator(self, case):
        name, src, dst, data = case
        platform = PLATFORMS[name]
        want = _reference_price(platform, src, dst, data)
        rc = RedistributionCost(platform)
        assert (rc.time(src, dst, data),
                rc.remote_bytes(src, dst, data)) == want
        # a second estimator priced through the batch entry point first
        batched = RedistributionCost(platform)
        times, remotes = batched.price_batch(src, [dst, src], data)
        assert (times[0], remotes[0]) == want
        assert (times[1], remotes[1]) == (0.0, 0.0)
        assert (batched.time(src, dst, data),
                batched.remote_bytes(src, dst, data)) == want

    def test_identical_ordered_sets_are_free_everywhere(self):
        for platform in PLATFORMS.values():
            rc = RedistributionCost(platform)
            src = tuple(range(min(6, platform.num_procs)))
            assert rc.time(src, src, 1e9) == 0.0
            assert rc.remote_bytes(src, src, 1e9) == 0.0

    def test_exhaustive_small_sets_on_mixed_platform(self):
        # every ordered pair of 1- and 2-processor sets drawn from one
        # processor per (cluster, cabinet) class and a neighbour
        platform = PLATFORMS["mixed"]
        procs = (0, 1, 9, 10, 15, 27, 31, 32, 38)
        sets = [(a,) for a in procs] + list(itertools.permutations(procs, 2))
        rc = RedistributionCost(platform)
        for src in sets[::3]:
            for dst in sets:
                assert (rc.time(src, dst, 7.5e6),
                        rc.remote_bytes(src, dst, 7.5e6)) == \
                    _reference_price(platform, src, dst, 7.5e6)


# --------------------------------------------------------------------- #
# route classes: the structure the single-pass pricer relies on
# --------------------------------------------------------------------- #
class TestRouteClasses:
    @pytest.mark.parametrize("name", ["chti", "grelon", "grid5000-grid",
                                      "mixed"])
    def test_routes_decompose_by_class_pair(self, name):
        platform = {"chti": Cluster(name="rc-chti", num_procs=20,
                                    speed_flops=CHTI.speed_flops),
                    "grelon": Cluster(name="rc-grelon", num_procs=120,
                                      speed_flops=GRELON.speed_flops,
                                      cabinets=5, cabinet_size=24),
                    "grid5000-grid": platforms.build("grid5000-grid"),
                    "mixed": _mixed_platform()}[name]
        topo = platform.topology
        n = platform.num_procs
        cls = [topo.route_class(p) for p in range(n)]
        up: dict[int, tuple] = {}
        down: dict[int, tuple] = {}
        nic: dict[tuple, float] = {}
        pair: dict[tuple, tuple] = {}
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                r = topo.route(s, d)
                assert len(r.links) >= 2
                first, last, middle = r.links[0], r.links[-1], r.links[1:-1]
                assert up.setdefault(s, first) == first
                assert down.setdefault(d, last) == last
                up_cap = topo.link_capacity(first)
                down_cap = topo.link_capacity(last)
                assert nic.setdefault((cls[s], "up"), up_cap) == up_cap
                assert nic.setdefault((cls[d], "down"), down_cap) == down_cap
                want = (middle, r.latency_s, r.rate_cap_Bps,
                        tuple(topo.link_capacity(lk) for lk in middle))
                assert pair.setdefault((cls[s], cls[d]), want) == want
        # up/down links are private to their processor
        assert len(set(up.values())) == n
        assert len(set(down.values())) == n
        assert not set(up.values()) & set(down.values())
        middles = {lk for m, *_ in pair.values() for lk in m}
        assert not middles & (set(up.values()) | set(down.values()))

    def test_class_values(self):
        grid = platforms.build("grid5000-grid")
        topo = grid.topology
        assert CHTI.topology.route_class(7) == (0, -1)
        assert GRILLON.topology.route_class(46) == (0, -1)
        assert GRELON.topology.route_class(0) == (0, 0)
        assert GRELON.topology.route_class(30) == (0, 1)
        assert GRELON.topology.route_class(119) == (0, 4)
        assert topo.route_class(19) == (0, -1)
        assert topo.route_class(20) == (1, -1)
        assert topo.route_class(67) == (2, 0)
        assert topo.route_class(186) == (2, 4)
        for bad in (-1, grid.num_procs):
            with pytest.raises(ValueError):
                topo.route_class(bad)
            with pytest.raises(ValueError):
                CHTI.topology.route_class(bad if bad < 0 else 20)


# --------------------------------------------------------------------- #
# receiver alignment: linear-time version == the quadratic greedy
# --------------------------------------------------------------------- #
def _overlap(a, b):
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _reference_align_receivers(src_procs, dst_procs):
    """The quadratic greedy alignment, kept verbatim as the oracle."""
    dst_list = sorted(set(dst_procs))
    p, q = len(src_procs), len(dst_list)
    if q == 0:
        raise ValueError("empty receiver set")
    src_rank = {proc: r for r, proc in enumerate(src_procs)}

    shared = [proc for proc in dst_list if proc in src_rank]
    others = [proc for proc in dst_list if proc not in src_rank]

    slots = [None] * q
    recv_ivals = [(j / q, (j + 1) / q) for j in range(q)]

    shared_sorted = sorted(shared, key=lambda proc: src_rank[proc])
    for proc in shared_sorted:
        i = src_rank[proc]
        ival = (i / p, (i + 1) / p)
        preferred = min(int(i * q / p), q - 1)
        best_j, best_ov = None, -1.0
        for j in range(q):
            if slots[j] is not None:
                continue
            ov = _overlap(ival, recv_ivals[j])
            key = (ov, -abs(j - preferred))
            if best_j is None or key > (best_ov, -abs(best_j - preferred)):
                best_j, best_ov = j, ov
        slots[best_j] = proc

    it = iter(others)
    for j in range(q):
        if slots[j] is None:
            slots[j] = next(it)
    return tuple(slots)


@st.composite
def _alignment_case(draw):
    universe = draw(st.integers(2, 90))
    src = draw(st.lists(st.integers(0, universe - 1), min_size=1,
                        max_size=min(universe, 60), unique=True))
    kind = draw(st.sampled_from(["random", "disjoint", "identical",
                                 "subset", "superset"]))
    if kind == "random":
        dst = draw(st.lists(st.integers(0, universe - 1), min_size=1,
                            max_size=min(universe, 60), unique=True))
    elif kind == "disjoint":
        rest = [x for x in range(universe + 40) if x not in src]
        dst = draw(st.lists(st.sampled_from(rest), min_size=1,
                            max_size=40, unique=True))
    elif kind == "identical":
        dst = list(src)
    elif kind == "subset":
        dst = draw(st.lists(st.sampled_from(src), min_size=1,
                            unique=True))
    else:
        extra = draw(st.lists(st.integers(universe, universe + 40),
                              max_size=30, unique=True))
        dst = list(src) + extra
    return tuple(src), draw(st.permutations(dst))


class TestAlignReceiversParity:
    @given(_alignment_case())
    @settings(max_examples=500, deadline=None)
    @example(((3, 1, 2), [2, 3, 1]))
    @example((tuple(range(40)), list(range(10, 60))))
    @example(((0, 1, 2, 3), [3]))
    def test_matches_the_greedy_oracle(self, case):
        src, dst = case
        assert align_receivers(src, dst) == \
            _reference_align_receivers(src, dst)

    def test_wide_sizes(self):
        # exhaustive over small shapes: every (p, q) up to 9 with the
        # receiver set sliding across the sender set
        for p in range(1, 10):
            src = tuple(range(p))
            for q in range(1, 10):
                for shift in range(-q, p + 1):
                    dst = [shift + k for k in range(q)]
                    dst = [x if x >= 0 else 100 - x for x in dst]
                    assert align_receivers(src, dst) == \
                        _reference_align_receivers(src, dst), (p, q, shift)


# --------------------------------------------------------------------- #
# malformed processor sets are rejected, not priced or aligned silently
# --------------------------------------------------------------------- #
class TestMalformedSets:
    def test_align_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate receiver"):
            align_receivers((0, 1, 2), [5, 5, 6])
        with pytest.raises(ValueError, match="duplicate receiver"):
            align_receivers((0, 1, 2), [1, 2, 2])
        with pytest.raises(ValueError, match="duplicate sender"):
            align_receivers((0, 1, 1), [2, 3])
        with pytest.raises(ValueError, match="duplicate sender"):
            align_receivers((4, 0, 4), {0, 4})

    @pytest.mark.parametrize("name", ["grillon", "grid5000-grid"])
    @pytest.mark.parametrize("data", [1e6, 0.0])
    def test_pricing_rejects_duplicates_and_out_of_range(self, name, data):
        platform = (GRILLON if name == "grillon"
                    else PLATFORMS["grid5000-grid"])
        n = platform.num_procs
        bad = [((0, 1, 1), (2, 3), "duplicate"),
               ((0, 1), (2, 3, 2), "duplicate"),
               ((-1, 0), (2, 3), "out of range"),
               ((0, 1), (2, -3), "out of range"),
               ((0, n), (2, 3), "out of range"),
               ((0, 1), (n + 5,), "out of range")]
        rc = RedistributionCost(platform)
        for src, dst, match in bad:
            for price in (rc.time, rc.remote_bytes):
                with pytest.raises(ValueError, match=match):
                    price(src, dst, data)
            with pytest.raises(ValueError, match=match):
                rc.price_batch(src, [dst], data)
        # well-formed sets still price, zero bytes for free
        assert rc.time((0, 1), (2, 3), data) >= 0.0
        assert rc.remote_bytes((0, 1), (2, 3), 0.0) == 0.0
