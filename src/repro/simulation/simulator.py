"""Event-driven fluid simulation of a mapped schedule.

The simulator replays a :class:`~repro.scheduling.schedule.Schedule` the way
a runtime system such as TGrid would execute it:

* the *mapping* (which ordered processor set runs each task) and the
  *per-processor task order* are taken from the schedule — they are the
  scheduler's decisions;
* all *times* are recomputed: a task starts when (a) it is at the front of
  the queue of every processor it uses, (b) every predecessor task has
  finished, and (c) every incoming redistribution has completed;
* a redistribution's flows are released one latency after the producer
  finishes and progress at Max-Min fair rates over the cluster's links
  (bounded multi-port, §II-B/§IV-A), with the SimGrid per-flow empirical
  cap ``Wmax / RTT``.
* computation and communication overlap freely (receiving data does not
  occupy a processor).

Because estimated redistribution times ignore contention while the
simulation does not, the simulated makespan can exceed the scheduler's
estimate — the effect §IV-D discusses.

One simulation core
-------------------
There is one event loop and one copy of the task and flow bookkeeping:
:class:`~repro.online.live.LiveFluidEngine`.  :func:`simulate` and
:class:`FluidSimulator` run the schedule through it as a single job
injected at t=0 under the schedule's own task names.  This module holds
what that engine builds on: the pair table and edge expansion, the
release scheduling, and the component machinery below.  The per-flow
reference engine, an independent oracle for the golden tests, is
:mod:`repro.simulation.reference`.

Implementation notes
--------------------
A dense 100-task DAG spawns tens of thousands of flows, so per-flow state
lives in numpy arrays and the Max-Min rates are solved over the *unique
active (src, dst) pairs* with multiplicities
(:func:`repro.network.maxmin.waterfill_bundled`), as described in
``docs/performance.md``.

The engine maintains the active pairs as **link-connected components**
(SimGrid-style lazy fluid model updates):

* a union-find over shared links groups active pairs into components;
  components merge when a newly released pair bridges them and dissolve
  when their last pair drains (merge-only while alive — a component may
  temporarily be coarser than the true connectivity, which costs work but
  never correctness, since Max-Min is exact on any union of components);
* every component caches its solved per-pair rates and its flows'
  *projected completion times*; an event re-solves **only** the
  components whose pair set or multiplicities it changed
  (``lazy=True``), and untouched components keep their cached rates and
  projections — their remaining bytes are materialised only when one of
  their own events fires;
* the "next flow completion" comes from a global **component event
  heap** keyed by each component's earliest projection, lazily
  invalidated by a per-component stamp — so the per-event cost scales
  with the touched component, not with the platform;
* each component numbers its links locally, so its solves see a
  capacity array of O(component links) instead of the whole platform's.

The unit of the flow lifecycle is the redistribution **edge**, not the
flow (``docs/performance.md``, "Edge-batched flow lifecycle"):

* an edge is expanded once (:meth:`_PairTable.expand_edge`) into a
  contiguous flow-id range, straight from the memoised
  communication-matrix triples;
* when its producer finishes, the edge's release instants are computed
  in one vector op and pushed as one heap entry per distinct instant
  (:func:`_push_release`) — grouped entries pop in exactly the
  ``(time, flow id)`` order per-flow entries would;
* a popped group joins its component in one step when it only revives or
  piles onto rows of one component
  (:meth:`_ComponentRegistry.release_edge`), and flow by flow otherwise;
* each event's completions reach the engine through one callback, in
  ascending flow id, and consumers' missing-flow counts drop per edge.

``lazy=False`` runs the same component machinery but re-solves every live
component at every flow-set change; since the extra solves see identical
inputs they produce identical rates, which makes the two modes
**byte-identical** (asserted by the property tests) while ``lazy=False``
actually performs the full-solve work and is therefore a true oracle for
the dirty-tracking.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter

import numpy as np

from repro.network.maxmin import dsu_find, waterfill_bundled
from repro.redistribution.matrix import _comm_matrix_entries
from repro.scheduling.schedule import Schedule
from repro.simulation.trace import FlowTrace, TaskTrace

__all__ = ["FluidSimulator", "SimulationResult", "simulate"]

_TIME_EPS = 1e-9
#: Completion threshold as a fraction of a flow's total bytes.
_REL_BYTES_EPS = 1e-9

_BY_CID = attrgetter("cid")


@dataclass
class SimulationResult:
    """Outcome of simulating one schedule.

    ``solves_full`` counts the events at which an eager engine re-solves
    the whole active flow set (every flow-set change); ``solves_component``
    counts the component-scoped solver invocations the engine actually
    performed.  On the per-flow reference engine
    (:mod:`repro.simulation.reference`) ``solves_component`` is 0 and
    ``maxmin_solves == solves_full``; on the component engine
    ``maxmin_solves == solves_component``, and the lazy path's saving is
    visible as ``solves_component`` falling below ``lazy=False``'s count
    (down to well under one solve per event when components decouple).
    """

    makespan: float
    task_traces: dict[str, TaskTrace]
    flow_traces: list[FlowTrace] = field(default_factory=list)
    events: int = 0
    maxmin_solves: int = 0
    solves_full: int = 0
    solves_component: int = 0
    #: total bundle rows handed to the solver across all component solves —
    #: a work proxy that moves even when the solve *count* stays the same
    solve_rows: int = 0
    #: wall-clock seconds inside the rate re-solve phase (waterfilling,
    #: projection updates, heap pushes) vs everything else in the event
    #: loop (sweeps, bookkeeping, releases) — the per-phase attribution
    #: that tells future perf legs where the time actually goes
    solve_s: float = 0.0
    event_s: float = 0.0

    def as_executed_schedule(self, schedule: Schedule) -> Schedule:
        """Rebuild a :class:`Schedule` carrying the *simulated* times."""
        from repro.scheduling.schedule import ScheduleEntry

        out = Schedule(graph=schedule.graph, cluster=schedule.cluster)
        for name, tr in self.task_traces.items():
            out.add(ScheduleEntry(task=name, procs=tr.procs,
                                  start=tr.start, finish=tr.finish))
        return out


def _grow(arr: np.ndarray, need: int) -> np.ndarray:
    """Capacity-doubling growth of an amortised append array."""
    cap = len(arr)
    if need <= cap:
        return arr
    new = np.empty(max(need, 2 * cap, 8), dtype=arr.dtype)
    new[:cap] = arr
    return new


class _StagedFlows:
    """Per-flow columns appended by :meth:`_PairTable.expand_edge`."""

    __slots__ = ("src", "dst", "size", "pid")

    def __init__(self) -> None:
        self.src: list[int] = []
        self.dst: list[int] = []
        self.size: list[float] = []
        self.pid: list[int] = []


class _PairTable:
    """The (src, dst) node pairs flows run between, and edge expansion.

    Route lookups run once per distinct pair, not per flow: flows carry
    a pair id, and the pair's link indices, rate cap and latency are
    stored once — the basis of the bundled Max-Min solves.
    """

    def __init__(self, topo) -> None:
        self.topo = topo
        self.index: dict[tuple[int, int], int] = {}
        self.routes: list[tuple[int, ...]] = []
        self.cap: list[float] = []
        self.lat: list[float] = []

    def expand_edge(self, src_procs, dst_procs, data: float,
                    out: _StagedFlows) -> tuple[int, int]:
        """Append the flows of one block redistribution of ``data`` bytes
        from ``src_procs`` to ``dst_procs`` (ordered sets) to ``out``;
        returns their index range ``[lo, hi)``.

        Iterates the memoised communication-matrix triples directly and
        drops self-communications and zero-byte entries, exactly as
        :func:`~repro.redistribution.matrix.redistribution_flows` does.
        """
        if not src_procs or not dst_procs:
            raise ValueError("processor sets must be non-empty")
        if data < 0:
            raise ValueError("m must be >= 0")
        get_pid = self.index.get
        add_src, add_dst = out.src.append, out.dst.append
        add_size, add_pid = out.size.append, out.pid.append
        lo = len(out.size)
        for i, j, amount in _comm_matrix_entries(data, len(src_procs),
                                                 len(dst_procs)):
            src, dst = src_procs[i], dst_procs[j]
            if src == dst or amount <= 0:
                continue
            pid = get_pid((src, dst))
            if pid is None:
                pid = self.index[(src, dst)] = len(self.routes)
                route = self.topo.route(src, dst)
                self.cap.append(route.rate_cap_Bps)
                self.lat.append(route.latency_s)
                self.routes.append(self.topo.route_indices(src, dst))
            add_src(src)
            add_dst(dst)
            add_size(amount)
            add_pid(pid)
        return lo, len(out.size)


def _edge_counts(fids: list[int], edge_of: list[int]):
    """``(edge id, flow count)`` of completed flows ``fids`` (ascending).

    An edge's flows are one contiguous fid range, so when the first and
    the last fid share an edge, every fid does — the common case of one
    component's completions."""
    first = edge_of[fids[0]]
    if first == edge_of[fids[-1]]:
        return ((first, len(fids)),)
    counts: dict[int, int] = {}
    for fid in fids:
        eid = edge_of[fid]
        counts[eid] = counts.get(eid, 0) + 1
    return counts.items()


def _push_release(heap: list, release_time: np.ndarray, lat: np.ndarray,
                  lo: int, hi: int, now: float) -> None:
    """Schedule the flows ``[lo, hi)`` of one edge whose producer finished
    at ``now``: each is released one route latency later.

    One heap entry ``(t, first fid, fids)`` per distinct instant ``t``.
    An edge's flows are one contiguous fid range, so these groups (fids
    ascending inside each) pop in exactly the ``(t, fid)`` order of
    per-flow entries — also when one edge has two instants or two edges
    share one.
    """
    t = now + lat[lo:hi]
    release_time[lo:hi] = t
    instants = t.tolist()
    first = instants[0]
    if instants.count(first) == len(instants):
        heapq.heappush(heap, (first, lo, np.arange(lo, hi)))
        return
    for instant in sorted(set(instants)):
        fids = np.flatnonzero(t == instant) + lo
        heapq.heappush(heap, (instant, int(fids[0]), fids))


class _Component:
    """One link-connected component of the active pair set.

    Pair rows and member flows are stored in amortised append arrays with
    tombstones (a drained pair keeps its row with multiplicity 0, a
    completed flow keeps its slot with ``remaining = inf``), compacted
    when dead entries outnumber live ones — so the steady-state per-event
    cost is O(changed entries), not O(component).  The CSR link incidence
    (``flat`` / ``ptr`` / ``row_lens``) is maintained incrementally on
    pair activation — the "bundle diff" that lets consecutive solves of
    the same component skip any rebuild.

    ``flat`` holds **component-local** link ids: every global link seen
    gets a compact local id (``local_of`` / ``local_links``) and its
    capacity (from ``caps_global``) is mirrored into ``cap_local``, so
    the solver receives a residual array of size O(component links)
    instead of the whole platform's.
    """

    __slots__ = (
        "cid", "alive", "dirty", "stamp", "t_mat", "next_t",
        "pair_rows",
        "row_pair", "mult", "row_caps", "n_rows", "live_rows",
        "flat", "ptr", "row_lens", "flat_len", "route_len", "uniform",
        "rates",
        "flow_fid", "flow_row", "n_flows", "live_flows", "flow_rates",
        "proj",
        "caps_global", "local_of", "local_links", "cap_local", "n_local",
        "arena", "arena_addr", "touch_epoch",
    )

    def __init__(self, cid: int, caps_global: np.ndarray) -> None:
        self.cid = cid
        self.alive = True
        self.dirty = True
        self.stamp = 0
        self.t_mat = 0.0
        self.next_t = math.inf
        self.pair_rows: dict[int, int] = {}   # pair id -> row index
        self.row_pair = np.empty(4, dtype=np.intp)
        # float64 multiplicities: handed to the solver without a cast
        # (always integer-valued, so comparisons stay exact)
        self.mult = np.zeros(4, dtype=float)
        self.row_caps = np.empty(4, dtype=float)
        self.flat = np.empty(8, dtype=np.intp)   # CSR link incidence
        self.ptr = np.zeros(5, dtype=np.intp)    # cached CSR offsets
        self.row_lens = np.empty(4, dtype=np.intp)
        self.flat_len = 0
        self.n_rows = 0
        self.live_rows = 0
        self.route_len = 0          # uniform route length, 0 = mixed
        self.uniform = True
        self.rates = np.zeros(0)
        self.flow_fid = np.empty(8, dtype=np.intp)
        self.flow_row = np.empty(8, dtype=np.intp)
        self.n_flows = 0
        self.live_flows = 0
        self.flow_rates = np.zeros(8)
        self.proj = np.full(8, np.inf)
        # local link index
        self.caps_global = caps_global
        self.local_of: dict[int, int] = {}
        self.local_links = np.empty(8, dtype=np.intp)
        self.cap_local = np.empty(8, dtype=float)
        self.n_local = 0
        # packed C-kernel descriptor (sizes + raw array addresses),
        # cached between solves and dropped by every structural
        # mutation — the existing bundle-diff bookkeeping decides when
        # repacking is needed, so steady-state completion events do none
        self.arena: np.ndarray | None = None
        self.arena_addr = 0
        # last event epoch this component was appended to reg.touched
        self.touch_epoch = -1

    # ------------------------------------------------------------------ #
    def local_ids(self, links) -> np.ndarray:
        """Local ids of ``links``, extending the index for unseen ones."""
        local_of = self.local_of
        out = np.empty(len(links), dtype=np.intp)
        n = self.n_local
        for i, g in enumerate(links):
            lid = local_of.get(g)
            if lid is None:
                self.local_links = _grow(self.local_links, n + 1)
                self.cap_local = _grow(self.cap_local, n + 1)
                self.local_links[n] = g
                self.cap_local[n] = self.caps_global[g]
                local_of[g] = lid = n
                n += 1
            out[i] = lid
        self.n_local = n
        return out

    def add_pair(self, pair: int, links: tuple[int, ...],
                 cap: float) -> int:
        row = self.n_rows
        self.row_pair = _grow(self.row_pair, row + 1)
        self.mult = _grow(self.mult, row + 1)
        self.row_caps = _grow(self.row_caps, row + 1)
        self.row_lens = _grow(self.row_lens, row + 1)
        self.row_pair[row] = pair
        self.mult[row] = 0
        self.row_caps[row] = cap
        self.row_lens[row] = len(links)
        end = self.flat_len + len(links)
        self.flat = _grow(self.flat, end)
        self.flat[self.flat_len:end] = self.local_ids(links)
        self.flat_len = end
        self.ptr = _grow(self.ptr, row + 2)
        self.ptr[row + 1] = end
        self.arena = None
        self.n_rows = row + 1
        self.live_rows += 1
        self.pair_rows[pair] = row
        if row == 0:
            self.route_len = len(links)
        elif self.uniform and len(links) != self.route_len:
            self.uniform = False
            self.route_len = 0
        return row

    def add_flow(self, fid: int, row: int) -> None:
        n = self.n_flows
        # the four flow arrays always share one capacity, so a single
        # bound check covers them all (this runs once per released flow)
        if n >= len(self.flow_fid):
            self.flow_fid = _grow(self.flow_fid, n + 1)
            self.flow_row = _grow(self.flow_row, n + 1)
            self.flow_rates = _grow(self.flow_rates, n + 1)
            self.proj = _grow(self.proj, n + 1)
            self.arena = None          # buffer addresses changed
        self.flow_fid[n] = fid
        self.flow_row[n] = row
        self.flow_rates[n] = 0.0
        self.proj[n] = math.inf
        self.n_flows = n + 1
        a = self.arena
        if a is not None:
            a[9] = n + 1               # only the slot count changed
        self.live_flows += 1

    def add_flows(self, fids: np.ndarray, rows: np.ndarray) -> None:
        """:meth:`add_flow` for a whole release group, as one slice."""
        n = self.n_flows
        end = n + len(fids)
        if end > len(self.flow_fid):
            self.flow_fid = _grow(self.flow_fid, end)
            self.flow_row = _grow(self.flow_row, end)
            self.flow_rates = _grow(self.flow_rates, end)
            self.proj = _grow(self.proj, end)
            self.arena = None          # buffer addresses changed
        self.flow_fid[n:end] = fids
        self.flow_row[n:end] = rows
        self.flow_rates[n:end] = 0.0
        self.proj[n:end] = math.inf
        self.n_flows = end
        a = self.arena
        if a is not None:
            a[9] = end
        self.live_flows += end - n

    # ------------------------------------------------------------------ #
    def compact_flows(self, remaining: np.ndarray) -> None:
        """Drop completed-flow slots (remaining == inf marks them dead)."""
        kept = 0
        if self.live_flows:            # a drained component keeps none
            n = self.n_flows
            keep = np.isfinite(remaining[self.flow_fid[:n]])
            kept = int(keep.sum())
            self.flow_fid[:kept] = self.flow_fid[:n][keep]
            self.flow_row[:kept] = self.flow_row[:n][keep]
            self.flow_rates[:kept] = self.flow_rates[:n][keep]
            self.proj[:kept] = self.proj[:n][keep]
        self.n_flows = kept
        a = self.arena
        if a is not None:
            a[9] = kept    # in-place rewrite: addresses are unchanged

    def compact_rows(self) -> list[int]:
        """Drop drained-pair rows (multiplicity 0), renumbering flows.

        The solved ``rates`` are *not* remapped: they are recomputed from
        scratch by the next solve before anything reads them (compaction
        only happens on completion events, which dirty the component).
        Returns the pair ids whose (resurrectable) tombstone rows were
        dropped — the registry must point them back at no component.
        """
        n = self.n_rows
        keep = self.mult[:n] > 0
        new_of_old = np.cumsum(keep) - 1
        kept = int(keep.sum())
        # rebuild the CSR incidence over the surviving rows
        pieces = [self.flat[self.ptr[r]:self.ptr[r + 1]]
                  for r in np.nonzero(keep)[0]]
        new_flat = (np.concatenate(pieces) if pieces
                    else np.empty(0, dtype=np.intp))
        self.flat[:len(new_flat)] = new_flat
        self.flat_len = len(new_flat)
        self.row_pair[:kept] = self.row_pair[:n][keep]
        self.row_lens[:kept] = self.row_lens[:n][keep]
        self.mult[:kept] = self.mult[:n][keep]
        self.row_caps[:kept] = self.row_caps[:n][keep]
        np.cumsum(self.row_lens[:kept], out=self.ptr[1:kept + 1])
        self.n_rows = kept
        dropped = [int(p) for p, r in self.pair_rows.items() if not keep[r]]
        self.pair_rows = {int(p): int(new_of_old[r])
                          for p, r in self.pair_rows.items() if keep[r]}
        # completed flows may still point at a dropped row; clamp them to
        # 0 — their rate is never read again (remaining == inf)
        old_rows = self.flow_row[:self.n_flows]
        dead_row = ~keep[old_rows]
        remapped = new_of_old[old_rows]
        remapped[dead_row] = 0
        self.flow_row[:self.n_flows] = remapped
        self.arena = None
        return dropped


class _ComponentRegistry:
    """The link-connected component machinery of the fluid engine.

    Owns the union-find over component ids, per-link ownership, the
    component event heap and the local (route-less) flow pseudo-heap, and
    performs the event-loop phases that touch components: the completion
    sweep (:meth:`sweep`), edge releases (:meth:`release_edge`) and the
    re-solve (:meth:`resolve`) — driven by
    :class:`~repro.online.live.LiveFluidEngine`'s event loop.

    ``remaining`` / ``done_threshold`` / ``pair_of`` are *bound* by the
    owning engine (and re-bound after amortised growth): the registry
    always reads the arrays the engine currently owns.  ``pair_routes`` /
    ``pair_cap`` are held by reference too — the engine appends to them
    on inject.
    """

    def __init__(self, capacities: np.ndarray, pair_routes, pair_cap, *,
                 lazy: bool = True) -> None:
        self.capacities = capacities
        self.pair_routes = pair_routes
        self.pair_cap = pair_cap
        self.lazy = lazy
        n_links = len(capacities)
        self.comps: list[_Component] = []
        self.parent: list[int] = []         # union-find over component ids
        # plain lists: these tables are only ever read and written one
        # scalar at a time in the (de)activation loops, where list
        # indexing is several times cheaper than ndarray item access
        self.link_owner: list[int] = [-1] * n_links
        self.link_pairs: list[int] = [0] * n_links
        self.comp_of_pair: list[int] = [-1] * len(pair_cap)
        self.comp_heap: list[tuple[float, int, int]] = []  # (t, cid, stamp)
        # local (route-less) flows complete one event after release; they
        # never join a component — a shared pseudo-heap orders them
        self.local_heap: list[tuple[float, int]] = []
        self.remaining: np.ndarray | None = None       # bound by the engine
        self.done_threshold: np.ndarray | None = None
        self.pair_of: np.ndarray | None = None
        self.touched: list[_Component] = []
        self.solves_full = 0
        self.solves_component = 0
        self.solve_rows = 0
        #: wall-clock seconds spent inside resolve() — the solve phase
        self.solve_s = 0.0
        self._epoch = 0                      # current event, for touched
        # ---- compiled fast paths (None = numpy fallback throughout) ----
        # load_* re-checks REPRO_NO_C_KERNEL on every call, so a registry
        # built under the kill switch stays on the numpy path even when a
        # kernel was compiled earlier in the process
        from repro.network._ckernel import load_batch_kernel, load_sweep_kernel
        self._batch_knl = load_batch_kernel()
        self._sweep_knl = load_sweep_kernel()
        self._rem_addr = 0                   # set by bind()
        self._thr_addr = 0
        # reusable kernel I/O buffers (grown on demand) + cached addresses
        self._desc = np.zeros(16 * 8, dtype=np.int64)
        self._desc_addr = self._desc.ctypes.data
        self._next = np.zeros(8, dtype=np.float64)
        self._next_addr = self._next.ctypes.data
        self._fin = np.empty(64, dtype=np.int64)
        self._fin_addr = self._fin.ctypes.data
        self._rows = np.empty(64, dtype=np.int64)
        self._rows_addr = self._rows.ctypes.data

    # ------------------------------------------------------------------ #
    def find(self, cid: int) -> int:
        return dsu_find(self.parent, cid)

    def new_component(self) -> _Component:
        cid = len(self.comps)
        comp = _Component(cid, self.capacities)
        self.comps.append(comp)
        self.parent.append(cid)
        return comp

    def push_comp(self, comp: _Component) -> None:
        if math.isfinite(comp.next_t):
            heapq.heappush(self.comp_heap,
                           (comp.next_t, comp.cid, comp.stamp))

    def bind(self, remaining: np.ndarray, done_threshold: np.ndarray,
             pair_of: np.ndarray) -> None:
        """(Re-)bind the engine-owned flow arrays.

        Engines must rebind through here after amortised growth: the
        kernels address the arrays by cached raw pointer, so a
        reallocation invalidates the addresses alongside the views."""
        self.remaining = remaining
        self.done_threshold = done_threshold
        self.pair_of = pair_of
        self._rem_addr = remaining.ctypes.data
        self._thr_addr = done_threshold.ctypes.data

    def begin_event(self) -> None:
        """Open a new event: clears the touched set (epoch bump makes
        the per-component membership test O(1) instead of a list scan)."""
        self.touched.clear()
        self._epoch += 1

    def _touch(self, comp: _Component) -> None:
        if comp.touch_epoch != self._epoch:
            comp.touch_epoch = self._epoch
            self.touched.append(comp)

    def _arena(self, comp: _Component) -> np.ndarray:
        """The component's packed kernel descriptor, (re)built on demand.

        Cached until a structural mutation (pair/flow growth, merge,
        compaction, rates rebind) drops it — completion-only
        steady-state events reuse the descriptor untouched."""
        d = comp.arena
        if d is not None:
            return d
        n = comp.n_rows
        if len(comp.rates) < n:
            comp.rates = _grow(comp.rates, n)
        d = np.empty(16, dtype=np.int64)
        d[0] = n
        d[1] = comp.n_local
        d[7] = comp.cap_local.ctypes.data
        d[2] = comp.flat.ctypes.data
        if comp.uniform and comp.route_len:
            d[3] = 0
            d[4] = comp.route_len
        else:
            d[3] = comp.ptr.ctypes.data
            d[4] = 0
        d[5] = comp.mult.ctypes.data
        d[6] = comp.row_caps.ctypes.data
        d[8] = comp.rates.ctypes.data
        d[9] = comp.n_flows
        d[10] = comp.flow_row.ctypes.data
        d[11] = comp.flow_fid.ctypes.data
        d[12] = comp.flow_rates.ctypes.data
        d[13] = comp.proj.ctypes.data
        d[14] = 0
        d[15] = 0
        comp.arena = d
        comp.arena_addr = d.ctypes.data
        return d

    def materialize(self, comp: _Component, t: float) -> None:
        """Advance the component's flows to ``t`` under cached rates."""
        if t > comp.t_mat:
            n = comp.n_flows
            fids = comp.flow_fid[:n]
            self.remaining[fids] -= comp.flow_rates[:n] * (t - comp.t_mat)
        comp.t_mat = t

    def merge(self, a: _Component, b: _Component, t: float) -> _Component:
        """Merge ``b`` into ``a`` (both materialised to ``t``)."""
        self.materialize(a, t)
        self.materialize(b, t)
        off = a.n_rows
        a.row_pair = _grow(a.row_pair, off + b.n_rows)
        a.mult = _grow(a.mult, off + b.n_rows)
        a.row_caps = _grow(a.row_caps, off + b.n_rows)
        a.row_lens = _grow(a.row_lens, off + b.n_rows)
        a.row_pair[off:off + b.n_rows] = b.row_pair[:b.n_rows]
        a.mult[off:off + b.n_rows] = b.mult[:b.n_rows]
        a.row_caps[off:off + b.n_rows] = b.row_caps[:b.n_rows]
        a.row_lens[off:off + b.n_rows] = b.row_lens[:b.n_rows]
        end = a.flat_len + b.flat_len
        a.flat = _grow(a.flat, end)
        # remap b's local link ids into a's local index
        remap = a.local_ids(b.local_links[:b.n_local].tolist())
        a.flat[a.flat_len:end] = remap[b.flat[:b.flat_len]]
        a.ptr = _grow(a.ptr, off + b.n_rows + 1)
        a.ptr[off + 1:off + b.n_rows + 1] = (a.flat_len
                                             + b.ptr[1:b.n_rows + 1])
        a.flat_len = end
        a.n_rows = off + b.n_rows
        a.live_rows += b.live_rows
        for pid, row in b.pair_rows.items():
            a.pair_rows[pid] = off + row
            self.comp_of_pair[pid] = a.cid
        if a.uniform and (not b.uniform or b.route_len != a.route_len):
            a.uniform = False
            a.route_len = 0
        fo = a.n_flows
        a.flow_fid = _grow(a.flow_fid, fo + b.n_flows)
        a.flow_row = _grow(a.flow_row, fo + b.n_flows)
        a.flow_rates = _grow(a.flow_rates, fo + b.n_flows)
        a.proj = _grow(a.proj, fo + b.n_flows)
        a.flow_fid[fo:fo + b.n_flows] = b.flow_fid[:b.n_flows]
        a.flow_row[fo:fo + b.n_flows] = b.flow_row[:b.n_flows] + off
        a.flow_rates[fo:fo + b.n_flows] = b.flow_rates[:b.n_flows]
        a.proj[fo:fo + b.n_flows] = b.proj[:b.n_flows]
        a.n_flows = fo + b.n_flows
        a.live_flows += b.live_flows
        a.arena = None
        b.alive = False
        self.parent[b.cid] = a.cid
        a.dirty = True
        return a

    def activate_pair(self, pid: int, t: float) -> tuple[_Component, int]:
        """Bring pair ``pid`` online; returns (component, row).

        Components sharing a link with the pair merge (union-find);
        link ownership is resolved through ``find``, so merged-away
        components never need their links rewritten.
        """
        links = self.pair_routes[pid]
        link_owner = self.link_owner
        roots: list[int] = []
        for li in links:
            owner = link_owner[li]
            if owner != -1:
                r = self.find(owner)
                if r not in roots:
                    roots.append(r)
        if not roots:
            comp = self.new_component()
            comp.t_mat = t
        else:
            comp = self.comps[roots[0]]
            self.materialize(comp, t)
            for r in roots[1:]:
                other = self.comps[r]
                if other.live_rows >= comp.live_rows:
                    comp, other = other, comp
                comp = self.merge(comp, other, t)
        row = comp.add_pair(pid, links, self.pair_cap[pid])
        self.comp_of_pair[pid] = comp.cid
        for li in links:
            link_owner[li] = comp.cid
            self.link_pairs[li] += 1
        comp.dirty = True
        return comp, row

    def resurrect_pair(self, pid: int, comp: _Component, row: int,
                       t: float) -> tuple[_Component, int]:
        """Re-activate a drained pair whose tombstone row still lives in
        ``comp``: reclaim link ownership (merging in any components that
        claimed the links meanwhile — their rows are appended after
        ``comp``'s, so live-row order matches a fresh activation) and
        revive the row in place, skipping the whole incidence rebuild of
        :meth:`activate_pair`."""
        links = self.pair_routes[pid]
        link_owner = self.link_owner
        self.materialize(comp, t)
        me = comp.cid
        roots: list[int] = []
        for li in links:
            owner = link_owner[li]
            if owner != -1:
                r = self.find(owner)
                if r != me and r not in roots:
                    roots.append(r)
        for r in roots:
            other = self.comps[r]
            if other.live_rows >= comp.live_rows:
                comp, other = other, comp
            comp = self.merge(comp, other, t)
            me = comp.cid
        if roots:
            row = comp.pair_rows[pid]
        for li in links:
            link_owner[li] = me
            self.link_pairs[li] += 1
        comp.live_rows += 1
        comp.dirty = True
        return comp, row

    # ------------------------------------------------------------------ #
    def comp_waterfill(self, comp: _Component) -> np.ndarray:
        self.solves_component += 1
        n = comp.n_rows
        self.solve_rows += n
        # components hand the solver their own capacity slice:
        # O(component links) per round instead of O(platform links)
        caps_arr = comp.cap_local[:comp.n_local]
        if comp.uniform and comp.route_len:
            return waterfill_bundled(
                comp.flat[:comp.flat_len], None, comp.mult[:n],
                caps_arr, comp.row_caps[:n],
                route_len=comp.route_len)
        return waterfill_bundled(
            comp.flat[:comp.flat_len], comp.ptr[:n + 1], comp.mult[:n],
            caps_arr, comp.row_caps[:n])

    def solve(self, comp: _Component, t: float) -> None:
        """Re-solve the component's rates and projections at ``t``."""
        comp.rates = self.comp_waterfill(comp)
        comp.arena = None                     # rates buffer rebound
        nf = comp.n_flows
        rf = comp.rates[comp.flow_row[:nf]]
        comp.flow_rates[:nf] = rf
        comp.proj[:nf] = t + self.remaining[comp.flow_fid[:nf]] / rf
        comp.stamp += 1
        comp.next_t = float(comp.proj[:nf].min()) if nf else math.inf
        comp.dirty = False
        self.push_comp(comp)

    # ------------------------------------------------------------------ #
    # event-loop phases
    # ------------------------------------------------------------------ #
    def peek(self) -> float:
        """Earliest component/local event time (inf when idle), dropping
        stale component-heap entries while peeking."""
        t_next = math.inf
        comp_heap = self.comp_heap
        comps = self.comps
        while comp_heap:
            tt, cid, stamp = comp_heap[0]
            comp = comps[cid]
            if not comp.alive or comp.stamp != stamp:
                heapq.heappop(comp_heap)
                continue
            t_next = tt
            break
        if self.local_heap and self.local_heap[0][0] < t_next:
            t_next = self.local_heap[0][0]
        return t_next

    def _finish(self, comp: _Component,
                done_sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complete the component's flows selected by ``done_sel`` (a mask
        over its flow slots); returns their fids and rows.  The numpy
        mirror of the compiled sweep's completion step."""
        nf = comp.n_flows
        finished = comp.flow_fid[:nf][done_sel]
        rows = comp.flow_row[:nf][done_sel]
        np.subtract.at(comp.mult, rows, 1)
        self.remaining[finished] = np.inf      # dead-slot marker
        comp.flow_rates[:nf][done_sel] = 0.0
        comp.proj[:nf][done_sel] = np.inf
        return finished, rows

    def sweep(self, now: float, complete_flows) -> bool:
        """Flow completions: pop every component whose earliest projection
        fired, materialise it, sweep its flows; then the local
        (route-less) flows.  Returns whether the flow set changed.

        Completions are buffered and delivered through one
        ``complete_flows(fids, now)`` call in ascending flow id — the
        order the per-flow reference engine uses (its active set is
        kept fid-sorted) — so the trace order of same-instant
        completions never depends on component row layout, which
        merges and pair resurrection reshuffle."""
        comps = self.comps
        comp_heap = self.comp_heap
        remaining = self.remaining
        done_threshold = self.done_threshold
        pair_routes = self.pair_routes
        link_owner = self.link_owner
        link_pairs = self.link_pairs
        set_changed = False
        completed: list[int] = []
        knl = self._sweep_knl
        while comp_heap and comp_heap[0][0] <= now:
            _, cid, stamp = heapq.heappop(comp_heap)
            comp = comps[cid]
            if not comp.alive or comp.stamp != stamp:
                continue
            if knl is not None:
                # compiled sweep: materialise + completion detect +
                # slot/multiplicity bookkeeping in one GIL-free call
                # over the cached descriptor (numpy block mirrored
                # slot-for-slot — see repro_sweep_comp)
                nf = comp.n_flows
                if nf > len(self._fin):
                    cap = max(nf, 2 * len(self._fin))
                    self._fin = np.empty(cap, dtype=np.int64)
                    self._fin_addr = self._fin.ctypes.data
                    self._rows = np.empty(cap, dtype=np.int64)
                    self._rows_addr = self._rows.ctypes.data
                if comp.arena is None:
                    self._arena(comp)
                dt = now - comp.t_mat
                comp.t_mat = now
                n_done = knl(comp.arena_addr, dt, now, self._thr_addr,
                             self._rem_addr, self._fin_addr,
                             self._rows_addr, self._next_addr)
                if n_done:
                    finished = self._fin[:n_done]
                    rows = self._rows[:n_done]
                else:
                    # spurious wake-up (rates dropped since the push):
                    # the kernel reprojected from materialised remaining
                    comp.stamp += 1
                    comp.next_t = float(self._next[0])
                    finished = None
            else:
                self.materialize(comp, now)
                nf = comp.n_flows
                fids = comp.flow_fid[:nf]
                done_sel = remaining[fids] <= done_threshold[fids]
                if done_sel.any():
                    finished, rows = self._finish(comp, done_sel)
                else:
                    # spurious wake-up (rates dropped since the push):
                    # reproject from materialised remaining
                    comp.stamp += 1
                    comp.proj[:nf] = now + (remaining[fids]
                                            / comp.flow_rates[:nf])
                    comp.next_t = (float(comp.proj[:nf].min())
                                   if nf else math.inf)
                    finished = None
            if finished is None:
                if not comp.next_t <= now:   # later, or NaN
                    self.push_comp(comp)
                    continue
                # The earliest completion reprojected to this very
                # instant: a flow's time left is below the clock's
                # resolution (adjacent floats near t = 1e9 are 1.2e-7 s
                # apart), so re-pushing the component would pop it again
                # unchanged.  Complete the flows projected to now.
                finished, rows = self._finish(
                    comp, comp.proj[:comp.n_flows] <= now)
            set_changed = True
            comp.dirty = True
            comp.live_flows -= len(finished)
            # Drain the pairs left with no flow: free their links but keep
            # the tombstone rows *resurrectable* — ``pair_rows`` /
            # ``comp_of_pair`` still point at them, so a later release of
            # the same pair revives the row in place (resurrect_pair)
            # instead of rebuilding CSR incidence and local link index.
            # Rows are deduped in first-seen order (order is irrelevant:
            # draining only decrements per-link counters).
            rows_l = rows.tolist()
            mult = comp.mult
            row_pair = comp.row_pair
            for r in rows_l if len(rows_l) == 1 else dict.fromkeys(rows_l):
                if mult[r] == 0:
                    comp.live_rows -= 1
                    for li in pair_routes[row_pair[r]]:
                        link_pairs[li] -= 1
                        if link_pairs[li] == 0:
                            link_owner[li] = -1
            completed.extend(finished.tolist())
            if comp.live_rows == 0:
                # fully drained: every link was already freed above.  The
                # component stays alive as a resurrectable shell — its
                # rows keep their local link ids, so re-releases of the
                # same pairs skip the whole rebuild.  No heap entry
                # (nothing can fire) and no solve needed (nothing is live).
                comp.compact_flows(remaining)
                comp.stamp += 1
                comp.next_t = math.inf
                comp.dirty = False
            else:
                if comp.live_flows * 2 < comp.n_flows:
                    comp.compact_flows(remaining)
                # Since tombstones became resurrectable, eviction is no
                # longer free — a compacted pair must rebuild incidence
                # and local index on its next release — so only clearly
                # tombstone-dominated large components compact.  The
                # trigger must not depend on engine knobs: whether a
                # pair resurrects in place or re-activates fresh decides
                # future row order, and the solver's per-link float
                # accumulation is row-order-sensitive in the last ulp.
                if (comp.live_rows * 8 < comp.n_rows
                        and comp.n_rows > 64):
                    for dead_pid in comp.compact_rows():
                        self.comp_of_pair[dead_pid] = -1
                if comp.touch_epoch != self._epoch:  # inlined _touch
                    comp.touch_epoch = self._epoch
                    self.touched.append(comp)

        # local (route-less) flows: instantaneous once released
        local_heap = self.local_heap
        local_done: list[int] = []
        while local_heap and local_heap[0][0] <= now:
            _, fid = heapq.heappop(local_heap)
            local_done.append(fid)
        if local_done:
            set_changed = True
            for fid in local_done:
                remaining[fid] = np.inf
            completed.extend(local_done)
        if completed:
            completed.sort()
            complete_flows(completed, now)
        return set_changed

    def release_edge(self, fids: np.ndarray, now: float) -> None:
        """Release one edge's flows due at ``now`` (ascending ``fids``).

        When the group only revives or piles onto rows of one component
        (see :meth:`_group_target`), it joins that component in one
        step: one materialisation, the revived rows re-claim their links,
        every row's multiplicity goes up by one and the flows append as
        one slice — the state the per-flow path reaches, bit for bit.
        Any other group is released flow by flow in fid order
        (:meth:`release`): activation and merges depend on order,
        because row order sets the solver's float accumulation order.
        """
        pids = self.pair_of[fids].tolist()
        target = self._group_target(pids)
        if target is None:
            for fid, pid in zip(fids.tolist(), pids):
                self.release(fid, pid, now)
            return
        comp, rows, revived = target
        self.materialize(comp, now)
        me = comp.cid
        link_owner = self.link_owner
        link_pairs = self.link_pairs
        pair_routes = self.pair_routes
        for pid in revived:
            for li in pair_routes[pid]:
                link_owner[li] = me
                link_pairs[li] += 1
        comp.live_rows += len(revived)
        comp.mult[rows] += 1
        comp.add_flows(fids, rows)
        comp.dirty = True
        self._touch(comp)

    def _group_target(self, pids: list[int]):
        """``(component, rows, revived pair ids)`` when a release group can
        join one component in one step, else None.

        That needs every pair to have a row (live or drained) in one
        component — route-less pairs never get one — no repeated pair
        (``mult[rows] += 1`` would count a repeated row once), and no
        drained pair whose link another component owns (reviving it
        would merge that component in)."""
        comp_of_pair = self.comp_of_pair
        cid = comp_of_pair[pids[0]]
        if cid == -1 or len(set(pids)) != len(pids):
            return None
        for pid in pids:
            if comp_of_pair[pid] != cid:
                return None
        comp = self.comps[self.find(cid)]
        pair_rows = comp.pair_rows
        rows = np.array([pair_rows[pid] for pid in pids], dtype=np.intp)
        drained = (comp.mult[rows] == 0).tolist()
        revived = [pid for pid, d in zip(pids, drained) if d]
        me = comp.cid
        link_owner = self.link_owner
        for pid in revived:
            for li in self.pair_routes[pid]:
                owner = link_owner[li]
                if owner != -1 and owner != me and self.find(owner) != me:
                    return None
        return comp, rows, revived

    def release(self, fid: int, pid: int, now: float) -> None:
        """A released flow joins its pair's component (activating or
        merging as needed); route-less pairs go to the local heap.  The
        per-flow fallback of :meth:`release_edge`."""
        if not self.pair_routes[pid]:
            # local pair: completes at the next event
            heapq.heappush(self.local_heap, (now, fid))
            return
        cid = self.comp_of_pair[pid]
        if cid == -1:
            comp, row = self.activate_pair(pid, now)
        else:
            comp = self.comps[self.find(int(cid))]
            row = comp.pair_rows[pid]
            if comp.mult[row] > 0:         # pair is live: just pile on
                self.materialize(comp, now)
                comp.dirty = True
            else:                          # drained tombstone: revive it
                comp, row = self.resurrect_pair(pid, comp, row, now)
        comp.mult[row] += 1
        comp.add_flow(fid, row)
        if comp.touch_epoch != self._epoch:     # inlined _touch (hot)
            comp.touch_epoch = self._epoch
            self.touched.append(comp)

    def resolve(self, now: float) -> None:
        """Re-solve: only dirty components (lazy) — or, on the full-solve
        oracle, every live component; clean ones see identical inputs and
        recompute identical rates, so the two modes stay byte-identical
        while ``lazy=False`` really performs the eager work.

        On the lazy path all dirty components re-solve through **one**
        batched kernel crossing (``repro_waterfill_batch``) — the
        same-timestamp completions the sweep coalesced across components
        become a single re-solve.  Results are committed in ascending
        component id, so stamps, heap pushes and counters follow one
        deterministic order.
        """
        t0 = perf_counter()
        self.solves_full += 1
        if not self.lazy:
            for comp in self.comps:
                if not comp.alive or not comp.live_rows:
                    continue
                if comp.dirty:
                    self.solve(comp, now)
                else:
                    # full re-solve of an untouched component: same
                    # bundles, same multiplicities — rates replaced by
                    # bitwise-equal values, cached projections untouched
                    # (their recomputation would reproduce them)
                    comp.rates = self.comp_waterfill(comp)
                    comp.arena = None
            self.solve_s += perf_counter() - t0
            return
        knl = self._batch_knl
        touched = self.touched
        if len(touched) == 1 and knl is not None:
            # fast path for the steady-state stream shape: one event
            # touched one component — no list building, no descriptor copy
            comp = touched[0]
            if comp.alive and comp.dirty and comp.live_rows:
                if comp.arena is None:
                    self._arena(comp)
                if knl(1, comp.arena_addr, now, self._rem_addr,
                       self._next_addr) == 0:
                    self._commit(comp, float(self._next[0]))
                else:   # pragma: no cover - kernel scratch malloc failed
                    self.solve(comp, now)
            self.solve_s += perf_counter() - t0
            return
        dirty = [c for c in self.touched
                 if c.alive and c.dirty and c.live_rows]
        if len(dirty) > 1:
            dirty.sort(key=_BY_CID)
        k = len(dirty)
        if knl is not None and k:
            if 16 * k > len(self._desc):
                cap = max(16 * k, 2 * len(self._desc))
                self._desc = np.zeros(cap, dtype=np.int64)
                self._desc_addr = self._desc.ctypes.data
                self._next = np.zeros(cap // 16, dtype=np.float64)
                self._next_addr = self._next.ctypes.data
            desc = self._desc
            for i, comp in enumerate(dirty):
                d = comp.arena
                if d is None:
                    d = self._arena(comp)
                desc[16 * i:16 * i + 16] = d
            if knl(k, self._desc_addr, now, self._rem_addr,
                   self._next_addr) == 0:
                nxt = self._next
                for j, comp in enumerate(dirty):  # ascending-cid commit
                    self._commit(comp, float(nxt[j]))
                self.solve_s += perf_counter() - t0
                return
        # numpy fallback (no compiler / REPRO_NO_C_KERNEL, or the
        # kernel's scratch allocation failed): per-component solves
        for comp in dirty:
            self.solve(comp, now)
        self.solve_s += perf_counter() - t0

    def _commit(self, comp: _Component, next_t: float) -> None:
        """Book a kernel solve: the kernel already wrote the component's
        rates and projections; ``next_t`` is its earliest projection."""
        self.solves_component += 1
        self.solve_rows += comp.n_rows
        comp.stamp += 1
        comp.next_t = next_t
        comp.dirty = False
        self.push_comp(comp)




class FluidSimulator:
    """Simulate one schedule on its cluster.

    A batch run is the :class:`~repro.online.live.LiveFluidEngine` with
    one job: the schedule is injected at t=0 under its own task names
    and drained.

    Parameters
    ----------
    schedule:
        A complete, valid schedule (see :meth:`Schedule.validate`) with
        at least one task.
    collect_flow_traces:
        Keep per-flow trace records (off by default: a 100-task DAG can
        spawn tens of thousands of flows).
    lazy:
        Re-solve only the link-connected components an event touched
        (default).  ``lazy=False`` re-solves every live component at
        every flow-set change — byte-identical traces, kept as the
        full-solve equivalence oracle.  The per-flow reference engine is
        :func:`repro.simulation.reference.simulate_reference`.
    """

    def __init__(self, schedule: Schedule, *,
                 collect_flow_traces: bool = False,
                 lazy: bool = True) -> None:
        self.schedule = schedule
        self.collect_flow_traces = collect_flow_traces
        self.lazy = lazy

    def run(self) -> SimulationResult:
        # deferred: the engine module builds on this one
        from repro.online.live import LiveFluidEngine

        schedule = self.schedule
        engine = LiveFluidEngine(schedule.cluster,
                                 collect_flow_traces=self.collect_flow_traces,
                                 lazy=self.lazy)
        # the bodies of inject() and drain(): see LiveFluidEngine
        engine._inject(schedule.graph.name, schedule, 0.0, "")
        engine._drain()
        return SimulationResult(
            makespan=engine.makespan(),
            task_traces=engine.traces,
            flow_traces=engine.flow_traces,
            events=engine.events,
            maxmin_solves=engine.solves_component,
            solves_full=engine.solves_full,
            solves_component=engine.solves_component,
            solve_rows=engine.solve_rows,
            solve_s=engine.solve_s,
            event_s=engine.event_s,
        )


def simulate(schedule: Schedule, **kwargs) -> SimulationResult:
    """Convenience wrapper: ``FluidSimulator(schedule, **kwargs).run()``."""
    return FluidSimulator(schedule, **kwargs).run()
