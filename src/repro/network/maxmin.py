"""Max-Min fair bandwidth allocation by progressive filling.

SimGrid models the sharing of network resources among concurrent flows with
Max-Min fairness (§IV-A): rates are raised together until a link saturates;
flows bottlenecked there are frozen at the link's fair share and the process
repeats on the residual network.  Flows may additionally carry an individual
rate cap (the empirical TCP bound ``Wmax / RTT``), honoured by treating the
cap as a private one-flow link.

The solver is exact for the fluid model and runs in
``O(#links · #flows)`` worst case, fast enough to be re-invoked at every
simulation event.

Flow bundling
-------------
Flows sharing the same (route, rate cap) are *interchangeable* under
Max-Min fairness: the optimum is unique and symmetric in such flows, so
they all receive the same rate and freeze together.  A redistribution
between two processor sets spawns ``O(p + q)`` flows but only as many
*distinct* routes as (src, dst) node pairs, so :func:`waterfill_bundled`
solves the progressive filling over unique route bundles carrying a
multiplicity, and callers broadcast the per-bundle rate back to the flows.
This collapses the per-solve cost from ``O(incidence entries)`` to
``O(bundles)`` — the hot-path win the fluid simulator relies on.

Component decomposition
-----------------------
The Max-Min optimum decomposes exactly over *link-connected components*
of the bundle set: two bundles sharing no link (directly or transitively)
never influence each other's rate, so each component can be solved in
isolation.  The fluid simulator's component registry
(:mod:`repro.simulation.simulator`) relies on this to re-solve only the
component an event touched; :func:`dsu_find` is its union-find.

Reference solver
----------------
:func:`maxmin_rates` (pure Python, one bottleneck at a time) is the one
reference every faster solver is tested against: the bundled solver and
its compiled kernel here, and the per-flow waterfilling of the reference
fluid engine (:mod:`repro.simulation.reference`).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

__all__ = [
    "maxmin_rates",
    "maxmin_rates_bundled",
    "waterfill_bundled",
]

_EPS = 1e-12


def maxmin_rates(
    routes: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    rate_caps: Sequence[float] | None = None,
) -> list[float]:
    """Compute the Max-Min fair rate of each flow.

    Parameters
    ----------
    routes:
        One sequence of link identifiers per flow.  A flow with an empty
        route (local communication) is only limited by its rate cap.
    capacities:
        Capacity of every link appearing in the routes.
    rate_caps:
        Optional per-flow rate bounds (``inf`` when absent).

    Returns
    -------
    list of per-flow rates; rates satisfy every capacity constraint and are
    Max-Min optimal (no flow's rate can grow without shrinking the rate of a
    flow with an equal-or-smaller rate).
    """
    n = len(routes)
    if rate_caps is None:
        rate_caps = [float("inf")] * n
    if len(rate_caps) != n:
        raise ValueError("rate_caps length must match routes length")

    rates: list[float] = [0.0] * n
    fixed = [False] * n

    # residual capacity and active flow count per link
    residual: dict[Hashable, float] = {}
    active_on: dict[Hashable, list[int]] = {}
    for i, route in enumerate(routes):
        for link in route:
            if link not in residual:
                if link not in capacities:
                    raise KeyError(f"no capacity for link {link!r}")
                residual[link] = float(capacities[link])
                active_on[link] = []
            active_on[link].append(i)

    unfixed = set(range(n))
    while unfixed:
        # candidate bottleneck level: min over links of residual / #active,
        # and min rate cap among unfixed flows
        best_level = float("inf")
        bottleneck_link: Hashable | None = None
        for link, flows_on in active_on.items():
            count = sum(1 for i in flows_on if not fixed[i])
            if count == 0:
                continue
            level = residual[link] / count
            if level < best_level - _EPS:
                best_level = level
                bottleneck_link = link

        cap_flow = None
        for i in unfixed:
            if rate_caps[i] < best_level - _EPS:
                best_level = rate_caps[i]
                cap_flow = i

        if best_level == float("inf"):
            # remaining flows are uncapped and cross no links: unbounded in
            # the fluid model; callers treat them as instantaneous.
            for i in unfixed:
                rates[i] = float("inf")
            break

        if cap_flow is not None:
            to_fix = [cap_flow]
            level = rate_caps[cap_flow]
        else:
            assert bottleneck_link is not None
            to_fix = [i for i in active_on[bottleneck_link] if not fixed[i]]
            level = best_level

        for i in to_fix:
            rates[i] = level
            fixed[i] = True
            unfixed.discard(i)
            for link in routes[i]:
                residual[link] = max(0.0, residual[link] - level)

    return rates


_KERNEL_UNSET = object()
_C_KERNEL = _KERNEL_UNSET   # lazily resolved on the first bundled solve


def _kernel():
    """The compiled waterfilling kernel, or ``None`` (numpy fallback)."""
    global _C_KERNEL
    if _C_KERNEL is _KERNEL_UNSET:
        from repro.network._ckernel import load_kernel

        _C_KERNEL = load_kernel()
    return _C_KERNEL


def waterfill_bundled(
    bundle_links_flat: np.ndarray,
    bundle_ptr: np.ndarray,
    multiplicity: np.ndarray,
    capacities: np.ndarray,
    rate_caps: np.ndarray,
    *,
    route_len: int | None = None,
) -> np.ndarray:
    """Waterfilling over *bundles* of interchangeable flows.

    A bundle groups ``multiplicity[b]`` flows that share the same route and
    the same per-flow rate cap; Max-Min fairness gives every one of them
    the same rate, so the progressive filling can run over bundles with the
    link fair-share counts weighted by multiplicity.

    Each round freezes every *locally bottlenecked* link — a link whose
    fair-share level is minimal among the links crossed by each of its
    unfixed bundles (Bertsekas–Gallager bottleneck iteration).  Freezing
    such a link at its level is exact: none of its bundles can be granted
    more anywhere else, and levels only rise as bundles leave the residual
    network.  This converges in a handful of rounds where one-bottleneck-
    at-a-time progressive filling needs tens.

    Parameters
    ----------
    bundle_links_flat, bundle_ptr:
        CSR incidence: bundle ``b`` crosses the integer link indices
        ``bundle_links_flat[bundle_ptr[b]:bundle_ptr[b + 1]]``.  A bundle
        with an empty route is only limited by its cap.
    multiplicity:
        Number of flows in each bundle (``>= 1``).
    capacities:
        Per-link capacities (indexed by the link ids in the incidence).
    rate_caps:
        Per-flow rate cap of each bundle (``inf`` when uncapped).
    route_len:
        Declare that *every* bundle crosses exactly ``route_len >= 1``
        links laid out contiguously in ``bundle_links_flat``
        (``bundle_ptr`` may then be ``None``) — the layout the fluid
        simulator's uniform-route components maintain incrementally.

    Returns
    -------
    Per-bundle, per-flow rate (each of the ``multiplicity[b]`` flows of
    bundle ``b`` receives ``rates[b]``).  Semantics match running
    :func:`maxmin_rates` over the expanded flow set.

    Notes
    -----
    When the optional compiled kernel is available
    (:mod:`repro.network._ckernel`) the solve runs in C with **bitwise
    identical** results; otherwise (including a failed in-kernel scratch
    allocation) the numpy rounds below run.
    """
    n_bundles = len(multiplicity)
    rates = np.zeros(n_bundles)
    if n_bundles == 0:
        return rates
    n_links = len(capacities)
    caps = np.asarray(rate_caps, dtype=float)

    kernel = _kernel()
    if kernel is not None:
        mult_f = (multiplicity if multiplicity.dtype == np.float64
                  else multiplicity.astype(float))
        if (bundle_links_flat.dtype == np.intp
                and mult_f.flags.c_contiguous
                and bundle_links_flat.flags.c_contiguous
                and caps.flags.c_contiguous
                and capacities.dtype == np.float64
                and capacities.flags.c_contiguous
                and (route_len
                     or (bundle_ptr is not None
                         and bundle_ptr.dtype == np.intp
                         and bundle_ptr.flags.c_contiguous))):
            rc = kernel(n_bundles, n_links,
                        bundle_links_flat.ctypes.data,
                        0 if route_len else bundle_ptr.ctypes.data,
                        route_len or 0,
                        mult_f.ctypes.data, caps.ctypes.data,
                        capacities.ctypes.data, rates.ctypes.data)
            if rc == 0:
                return rates
            # scratch allocation failed inside the kernel: fall through
            # to the numpy rounds rather than return degraded rates

    if route_len and bundle_ptr is None:
        bundle_ptr = np.arange(n_bundles + 1, dtype=np.intp) * route_len

    mult = multiplicity.astype(float)

    lens = np.diff(bundle_ptr)
    entry_bundle = np.repeat(np.arange(n_bundles, dtype=np.intp), lens)
    # route-less or population-less bundles never enter the filling;
    # the former are cap-limited, the latter carry no flows at all
    prefixed = (lens == 0) | (multiplicity == 0)

    n_unfixed = n_bundles
    if prefixed.any():
        rates[prefixed] = caps[prefixed]
        n_unfixed -= int(prefixed.sum())
        live0 = ~prefixed[entry_bundle]
        fl_live = bundle_links_flat[live0]
        eb_live = entry_bundle[live0]
    else:
        fl_live = bundle_links_flat
        eb_live = entry_bundle
    if len(fl_live) == 0:
        rates[~prefixed] = caps[~prefixed]
        return rates

    residual = np.asarray(capacities, dtype=float).copy()
    w_live = mult[eb_live]
    notfixed = ~prefixed
    levels = np.empty(n_links)
    blm = np.empty(n_bundles)
    link_min = np.empty(n_links)

    while n_unfixed > 0:
        counts = np.bincount(fl_live, weights=w_live, minlength=n_links)
        levels.fill(np.inf)
        np.divide(residual, counts, out=levels, where=counts > 0)

        # per-bundle bottleneck level: min over the bundle's links
        ent_lvl = levels[fl_live]
        blm.fill(np.inf)
        np.minimum.at(blm, eb_live, ent_lvl)
        bundle_min = np.minimum(blm, caps)

        # a link freezes when its level is minimal for every one of its
        # unfixed bundles (cap included: a lower cap defers the link);
        # idle links freeze vacuously and carry no live entries
        link_min.fill(np.inf)
        np.minimum.at(link_min, fl_live, bundle_min[eb_live])
        frozen_link = link_min >= levels * (1 - 1e-12)

        # bundles on a frozen link freeze at their bottleneck level; a
        # bundle capped at or below its bottleneck freezes at its cap
        # (blm is inf for fixed bundles, masked by notfixed)
        to_fix = caps <= blm * (1 + 1e-12)
        to_fix[eb_live[frozen_link[fl_live]]] = True
        to_fix &= notfixed
        n_new = int(to_fix.sum())
        if n_new == 0:  # pragma: no cover - degenerate (all-inf levels)
            break
        rates[to_fix] = bundle_min[to_fix]
        notfixed[to_fix] = False
        n_unfixed -= n_new

        # newly fixed bundles leave the residual network; their entries
        # are dropped so later rounds shrink
        keep = notfixed[eb_live]
        drop = ~keep
        np.subtract.at(residual, fl_live[drop],
                       rates[eb_live[drop]] * w_live[drop])
        np.maximum(residual, 0.0, out=residual)
        fl_live = fl_live[keep]
        eb_live = eb_live[keep]
        w_live = w_live[keep]

    # safety net: anything left over is cap-limited
    rates[notfixed] = caps[notfixed]
    return rates


def maxmin_rates_bundled(
    flow_links: Sequence[Sequence[int]],
    capacities: np.ndarray,
    rate_caps: np.ndarray | None = None,
) -> np.ndarray:
    """Max-Min rates via flow bundling — same semantics as
    :func:`maxmin_rates`, over integer link ids indexing ``capacities``.

    Flows with identical (route, rate cap) are grouped into one bundle,
    the waterfilling runs over bundles with multiplicities
    (:func:`waterfill_bundled`), and the per-bundle rate is broadcast back
    to every member flow.  On flow sets with many shared routes — a
    redistribution between large processor sets, a dense DAG's concurrent
    transfers — this is the fast path.
    """
    n = len(flow_links)
    if rate_caps is None:
        caps = np.full(n, np.inf)
    else:
        caps = np.asarray(rate_caps, dtype=float)
        if len(caps) != n:
            raise ValueError("rate_caps length must match flow_links length")
    if n == 0:
        return np.zeros(0)

    bundles: dict[tuple, int] = {}
    bundle_of = np.empty(n, dtype=np.intp)
    bundle_routes: list[Sequence[int]] = []
    bundle_caps: list[float] = []
    counts: list[int] = []
    for i, route in enumerate(flow_links):
        key = (tuple(route), float(caps[i]))
        b = bundles.get(key)
        if b is None:
            b = len(bundle_routes)
            bundles[key] = b
            bundle_routes.append(route)
            bundle_caps.append(float(caps[i]))
            counts.append(0)
        bundle_of[i] = b
        counts[b] += 1

    lengths = np.array([len(r) for r in bundle_routes], dtype=np.intp)
    ptr = np.zeros(len(bundle_routes) + 1, dtype=np.intp)
    np.cumsum(lengths, out=ptr[1:])
    flat = np.fromiter((l for r in bundle_routes for l in r),
                       dtype=np.intp, count=int(lengths.sum()))
    bundle_rates = waterfill_bundled(
        flat, ptr, np.array(counts, dtype=np.intp),
        np.asarray(capacities, dtype=float),
        np.array(bundle_caps, dtype=float))
    return bundle_rates[bundle_of]


# --------------------------------------------------------------------- #
# link-connected component decomposition
# --------------------------------------------------------------------- #
def dsu_find(parent: list[int], x: int) -> int:
    """Union-find root of ``x`` with path compression.

    ``parent`` is a plain parent list (``parent[r] == r`` marks a root);
    merging is ``parent[find(a)] = find(b)`` at the call site.  Used by
    the fluid simulator's component registry.
    """
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root
