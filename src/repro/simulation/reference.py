"""The per-flow reference engine: an independent oracle for the goldens.

:func:`simulate_reference` replays a schedule with the simplest loop the
fluid model allows.  Every flow is solved on its own, with no bundling,
no components and no compiled kernel: each flow-set change re-solves
the whole active set by simultaneous waterfilling (:func:`_waterfill`),
and each event scans every active flow for completions.

The task and flow bookkeeping is the fluid engine's own: the oracle
subclasses :class:`~repro.online.live.LiveFluidEngine` and overrides only
its event loop.  What it checks is therefore the part that is hard to
get right — the component registry, the sweep, the edge-grouped
releases and the kernels — and it agrees with the default engine's
goldens to within one ulp (``tests/test_golden_traces.py``).

It is a test oracle, not a production path: the dense 100-task DAG of
``repro bench`` takes about 20 times longer than
:func:`~repro.simulation.simulate`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.online.live import LiveFluidEngine
from repro.scheduling.schedule import Schedule
from repro.simulation.simulator import _TIME_EPS, SimulationResult

__all__ = ["simulate_reference"]


def _waterfill(entry_links: np.ndarray, entry_flow: np.ndarray,
               n_flows: int, capacities: np.ndarray,
               caps: np.ndarray) -> np.ndarray:
    """Max-Min rates by simultaneous waterfilling.

    ``entry_links`` / ``entry_flow`` give the (link, flow) incidence of the
    ``n_flows`` flows under consideration, with flow ids in ``[0, n_flows)``.
    Per-flow ``caps`` bound individual rates (the TCP window cap).
    Semantics match :func:`repro.network.maxmin.maxmin_rates`; links whose
    fair-share level ties with the minimum freeze *together*, which keeps
    the iteration count small on homogeneous-capacity networks.
    """
    n_links = len(capacities)
    rates = np.zeros(n_flows)
    fixed = np.zeros(n_flows, dtype=bool)
    residual = capacities.copy()

    for _ in range(n_links + n_flows + 1):
        live = ~fixed[entry_flow]
        if not live.any():
            break
        counts = np.bincount(entry_links[live], minlength=n_links)
        busy = counts > 0
        levels = np.full(n_links, np.inf)
        levels[busy] = residual[busy] / counts[busy]
        min_level = float(levels.min())

        unfixed_caps = np.where(fixed, np.inf, caps)
        min_cap = float(unfixed_caps.min())

        if min_cap < min_level * (1 - 1e-12):
            # cap-limited flows freeze at their cap
            to_fix = np.where(unfixed_caps <= min_cap * (1 + 1e-12))[0]
            rates[to_fix] = caps[to_fix]
        else:
            if not math.isfinite(min_level):
                break
            min_links = levels <= min_level * (1 + 1e-12)
            sel = min_links[entry_links] & live
            to_fix = np.unique(entry_flow[sel])
            rates[to_fix] = min_level
        fixed[to_fix] = True
        dec = np.isin(entry_flow, to_fix)
        np.subtract.at(residual, entry_links[dec], rates[entry_flow[dec]])
        np.maximum(residual, 0.0, out=residual)

    # safety net: anything left over is cap-limited
    rates[~fixed] = caps[~fixed]
    return rates


def _csr_gather(flat: np.ndarray, ptr: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows ``rows``; returns (entries, row lengths)."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype), lens
    # positions of each row's entries in the output are contiguous
    cum = np.zeros(len(rows), dtype=np.intp)
    np.cumsum(lens[:-1], out=cum[1:])
    idx = (np.arange(total, dtype=np.intp)
           - np.repeat(cum, lens) + np.repeat(starts, lens))
    return flat[idx], lens


class _PerFlowEngine(LiveFluidEngine):
    """The fluid engine's bookkeeping under a per-flow, global-scan loop.

    Replays one schedule injected before the run; ``solves`` counts the
    whole-set re-solves.
    """

    solves = 0

    def _run(self, until: float) -> None:
        if until != math.inf:
            raise ValueError("the per-flow reference engine only drains")
        n_flows = self.nf
        capacities = self.capacities
        remaining = self.remaining[:n_flows]
        done_threshold = self.done_threshold[:n_flows]
        rates = np.zeros(n_flows)

        # expand the per-flow (link, flow) incidence and rate caps from
        # the pairs' routes (CSR) and caps
        pair_of = self.pair_of[:n_flows]
        flow_cap = np.array(self.pairs.cap, dtype=float)[pair_of]
        pair_routes = self.pairs.routes
        pair_lens = np.array([len(r) for r in pair_routes], dtype=np.intp)
        pair_ptr = np.zeros(len(pair_routes) + 1, dtype=np.intp)
        np.cumsum(pair_lens, out=pair_ptr[1:])
        pair_links_flat = np.fromiter(
            (li for r in pair_routes for li in r),
            dtype=np.intp, count=int(pair_lens.sum()))
        links_flat, _ = _csr_gather(pair_links_flat, pair_ptr, pair_of)
        links_flow = np.repeat(
            np.arange(n_flows, dtype=np.intp),
            pair_ptr[pair_of + 1] - pair_ptr[pair_of])

        now = self.now
        solves = 0
        active_idx = np.empty(0, dtype=np.intp)  # ids of active flows
        next_completion = math.inf
        finish_heap = self.finish_heap
        release_heap = self.release_heap

        def recompute_rates() -> None:
            nonlocal solves, next_completion
            solves += 1
            if len(active_idx) == 0:
                next_completion = math.inf
                return
            # compact incidence restricted to the active flows
            # (active_idx kept sorted)
            active_mask = np.zeros(n_flows, dtype=bool)
            active_mask[active_idx] = True
            sel = active_mask[links_flow]
            compact_flow = np.searchsorted(active_idx, links_flow[sel])
            r = _waterfill(links_flat[sel], compact_flow, len(active_idx),
                           capacities, flow_cap[active_idx])
            rates[active_idx] = r
            etas = remaining[active_idx] / rates[active_idx]
            next_completion = now + float(etas.min())

        # a single errstate for the whole loop: etas legitimately divide
        # by zero/inf rates (instantaneous and stalled flows)
        old_err = np.seterr(divide="ignore", invalid="ignore")
        try:
            while len(self.done_tasks) < self.total:
                t_candidates = [next_completion]
                if finish_heap:
                    t_candidates.append(finish_heap[0][0])
                if release_heap:
                    t_candidates.append(release_heap[0][0])
                t_next = min(t_candidates)
                if not math.isfinite(t_next):  # pragma: no cover - deadlock
                    raise RuntimeError(
                        f"simulation stalled at t={now:g}: "
                        f"{self.total - len(self.done_tasks)} tasks never "
                        f"became runnable")
                dt = max(0.0, t_next - now)

                if dt > 0 and len(active_idx):
                    remaining[active_idx] -= rates[active_idx] * dt
                now = t_next
                self.events += 1
                set_changed = False

                # 1) flow completions
                if len(active_idx):
                    done_sel = (remaining[active_idx]
                                <= done_threshold[active_idx])
                    if done_sel.any():
                        finished = active_idx[done_sel]
                        active_idx = active_idx[~done_sel]
                        remaining[finished] = 0.0
                        set_changed = True
                        self._complete_flows(finished.tolist(), now)

                # 2) task completions
                while finish_heap and finish_heap[0][0] <= now + _TIME_EPS:
                    _, name = heapq.heappop(finish_heap)
                    self._finish_task(name, now)

                # 3) flow releases
                newly_active: list[np.ndarray] = []
                while release_heap and release_heap[0][0] <= now + _TIME_EPS:
                    newly_active.append(heapq.heappop(release_heap)[2])
                if newly_active:
                    active_idx = np.sort(np.concatenate(
                        [active_idx, *newly_active]))
                    set_changed = True

                # 4) newly startable tasks
                self._start_ready(now)

                if set_changed:
                    recompute_rates()
                elif len(active_idx):
                    etas = remaining[active_idx] / rates[active_idx]
                    next_completion = now + float(etas.min())
                else:
                    next_completion = math.inf
        finally:
            np.seterr(**old_err)
            self.now = now
            self.solves += solves


def simulate_reference(schedule: Schedule, *,
                       collect_flow_traces: bool = False) -> SimulationResult:
    """Simulate ``schedule`` on the per-flow reference engine.

    Same result fields as :func:`~repro.simulation.simulate`, except the
    solver counters: every whole-set re-solve counts in ``solves_full``
    and ``maxmin_solves``, and ``solves_component`` is 0.
    """
    engine = _PerFlowEngine(schedule.cluster,
                            collect_flow_traces=collect_flow_traces)
    engine._inject(schedule.graph.name, schedule, 0.0, "")
    engine._drain()
    return SimulationResult(
        makespan=engine.makespan(),
        task_traces=engine.traces,
        flow_traces=engine.flow_traces,
        events=engine.events,
        maxmin_solves=engine.solves,
        solves_full=engine.solves,
        solves_component=0,
    )
