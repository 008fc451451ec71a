"""Span tracing from outside the program, and per-layer accounting.

A traced run wraps public entry points of each layer with
``perf_counter_ns`` spans.  Spans are kept in memory (one list per
:class:`Tracer`) and written out once, when the run ends.  Nothing here
edits the program: :func:`install` patches attributes of already-imported
classes, registries and modules, and :func:`Installed.remove` restores them.

Accounting.  Every span has a parent (the span open when it started).  A
span's *self* time is its duration minus the durations of its direct
children, minus any time a counter attributes to a layer without spans of
its own (the Max-Min solve time the simulator and the live engine report,
booked to ``network``).  Layer self times plus the root span's self time
(``trace.other_s``) therefore add up to the root span's duration, which is
the traced wall time.

What each layer should move (end-to-end metric, workload):

* ``experiments``, ``dag``, ``allocation``, ``simulation``: ``ops_per_s``
  on ``paper_campaign`` (``simulation`` the largest share; ``dag`` and
  ``allocation`` are cached per scenario on ``serve_poisson``);
* ``mapping``, ``avail``, ``redistribution``: ``op_p50_ms``/``op_p90_ms``
  on ``serve_poisson`` and ``ops_per_s`` on ``paper_campaign``; nothing on
  ``large_grid_stream``;
* ``network``: ``ops_per_s`` on ``paper_campaign`` and
  ``large_grid_stream``;
* ``live``: nearly all of ``large_grid_stream``, and the largest single
  share of ``serve_poisson``'s submit latency;
* ``online``, ``service``: ``serve_poisson`` latencies and
  ``service.stats_*``;
* ``platforms.route_warm_s``: ``setup_s`` on ``large_grid_stream``;
* ``loadgen``: whether a ``serve_poisson`` run is valid; ``trace``: the
  accounting itself.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

NS = 1e-9

# (module, attribute path, span name).  The span name's first component is
# the layer.  Plain functions are patched in every ``repro`` module that
# imported them by name.
TARGETS = (
    ("repro.experiments.runner", "ExperimentRunner.run_matrix",
     "experiments.run_matrix"),
    ("repro.experiments.scenarios", "Scenario.build", "dag.build"),
    ("repro.registry", "allocators.build", "allocation.build"),
    ("repro.registry", "schedulers.build", "mapping.build"),
    ("repro.scheduling.mapping", "ListScheduler.run", "mapping.run"),
    ("repro.scheduling.mapping", "ListScheduler.candidate_sets",
     "mapping.candidates"),
    ("repro.scheduling.multicluster", "_MultiClusterMixin.candidate_sets",
     "mapping.candidates"),
    ("repro.scheduling.mapping", "ListScheduler.commit", "mapping.commit"),
    ("repro.scheduling.avail", "AvailabilityIndex.k_smallest",
     "avail.k_smallest"),
    ("repro.scheduling.avail", "AvailabilityIndex.update_many",
     "avail.update_many"),
    ("repro.scheduling.avail", "AvailabilityIndex.reseed", "avail.reseed"),
    ("repro.redistribution.cost", "RedistributionCost.time",
     "redistribution.price"),
    ("repro.redistribution.cost", "RedistributionCost.remote_bytes",
     "redistribution.price"),
    ("repro.redistribution.cost", "RedistributionCost.price_batch",
     "redistribution.price"),
    ("repro.redistribution.cost", "RedistributionCost.average_edge_time",
     "redistribution.price"),
    ("repro.redistribution.remap", "align_receivers", "redistribution.remap"),
    ("repro.simulation.simulator", "simulate", "simulation.simulate"),
    ("repro.online.live", "LiveFluidEngine.inject", "live.inject"),
    ("repro.online.live", "LiveFluidEngine.advance_until", "live.advance"),
    ("repro.online.live", "LiveFluidEngine.drain", "live.drain"),
    ("repro.online.engine", "OnlineSimulator.submit", "online.submit"),
    ("repro.online.engine", "OnlineSimulator.advance_until", "online.advance"),
    ("repro.online.engine", "OnlineSimulator.drain", "online.drain"),
    ("repro.online.engine", "OnlineSimulator.result", "online.result"),
    ("repro.online.engine", "OnlineSimulator.records", "online.result"),
    ("repro.online.engine", "OnlineSimulator.residual_state",
     "online.result"),
)

# layers with spans; ``network`` has none, its time comes from the solve
# counters (``network.solve_s``)
LAYERS = ("experiments", "dag", "allocation", "mapping", "avail",
          "redistribution", "simulation", "live", "online", "service")


class Tracer:
    """In-memory span recorder with a single-threaded call stack.

    A span is ``[name, start_ns, end_ns, parent, carve_s]``; ``carve_s`` is
    time inside the span that a counter books to the ``network`` layer.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of "
                               f"order (open: {self.spans[popped][0]})")

    def wrap(self, fn, name: str, probe=None, after=None):
        """``fn`` inside a span.  ``probe(args, result)`` reads a network
        solve-time counter before (``result=None``) and after the call;
        ``after(counters, result)`` folds the result's own counters in."""
        tracer = self

        def traced(*args, **kwargs):
            before = probe(args, None) if probe else 0.0
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe:
                tracer.spans[idx][4] = probe(args, result) - before
            if after:
                after(tracer.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ #
    def summarize(self, root: int) -> dict:
        """Per-name outermost counts/inclusive seconds and per-layer self
        seconds over the subtree of span ``root``."""
        spans = self.spans
        children_s = defaultdict(float)
        keep = {root}
        for i, span in enumerate(spans):   # parents precede their children,
            if i != root and span[3] in keep:   # or are the root itself
                keep.add(i)
        for i in keep:
            name, start, end, parent, _ = spans[i]
            if i != root:
                children_s[parent] += (end - start) * NS
        count: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i in keep:
            name, start, end, parent, carve = spans[i]
            dur = (end - start) * NS
            own = dur - children_s[i] - carve
            if i == root:
                self_s["other"] += own
                continue
            self_s[name.split(".", 1)[0]] += own
            self_s["network"] += carve
            if spans[parent][0] != name:   # outermost of its own name
                count[name] += 1
                incl[name] += dur
        wall = (spans[root][2] - spans[root][1]) * NS
        return {"count": count, "incl": incl, "self": self_s, "wall": wall,
                "spans": len(keep)}

    def dump(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                               "parent", "network_s"],
                                    "spans": self.spans,
                                    "counters": dict(self.counters),
                                    **extra}))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{module}.{path} is missing: the traced run "
                             "cannot attribute this layer")
    return owner, attr


def _engine_solve_s(args, result):
    return args[0].solve_s


def _result_solve_s(args, result):
    return 0.0 if result is None else result.solve_s


def _simulation_counters(counters, res) -> None:
    counters["simulation.events"] += res.events
    counters["simulation.event_s"] += res.event_s
    counters["network.solves"] += res.solves_component
    counters["network.solve_rows"] += res.solve_rows


class Installed:
    """The patches one :func:`install` made, for :meth:`remove`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self.patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old, had in reversed(self.patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self.patches.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`TARGETS`; fails loudly if one is
    missing."""
    done = Installed()
    for module, path, name in TARGETS:
        owner, attr = _resolve(module, path)
        fn = getattr(owner, attr)
        if name.startswith("live."):
            wrapped = tracer.wrap(fn, name, probe=_engine_solve_s)
        elif name == "simulation.simulate":
            wrapped = tracer.wrap(fn, name, probe=_result_solve_s,
                                  after=_simulation_counters)
        else:
            wrapped = tracer.wrap(fn, name)
        if not isinstance(owner, types.ModuleType):
            done.set(owner, attr, wrapped)
            continue
        # a module-level function: rebind it wherever it was imported
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and \
                    getattr(mod, attr, None) is fn:
                done.set(mod, attr, wrapped)
    return done


def traced_pass(one_pass, finish):
    """An untraced pass, a traced pass, and another untraced pass.

    Returns ``finish`` applied to the first untraced and to the traced
    pass's result, the tracer with its root span, and the tracing
    overhead: the traced wall time over the mean untraced one, minus 1.
    """
    gc.collect()
    t0 = time.perf_counter()
    plain = one_pass()
    untraced_s = time.perf_counter() - t0
    plain = finish(plain)
    gc.collect()
    tracer = Tracer()
    installed = install(tracer)
    root = tracer.open("trace.root")
    try:
        traced = one_pass()
    finally:
        tracer.close(root)
        installed.remove()
    traced = finish(traced)
    gc.collect()
    t0 = time.perf_counter()
    one_pass()
    untraced_s = (untraced_s + time.perf_counter() - t0) / 2
    wall = (tracer.spans[root][2] - tracer.spans[root][1]) * NS
    return plain, traced, tracer, root, wall / untraced_s - 1.0


def engine_counters(engine) -> dict[str, float]:
    """A live engine's own event and solve counters."""
    return {"live.events": engine.events, "live.event_s": engine.event_s,
            "network.solves": engine.solves_component,
            "network.solve_rows": engine.solve_rows}


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """The per-layer metric values one traced window yields."""
    n, s, own = summary["count"], summary["incl"], summary["self"]
    out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "dag.build_s": s["dag.build"], "dag.graphs": n["dag.build"],
        "allocation.busy_s": s["allocation.build"],
        "allocation.calls": n["allocation.build"],
        "mapping.busy_s": s["mapping.build"] + s["mapping.run"],
        "mapping.schedules": n["mapping.run"],
        "mapping.candidate_s": s["mapping.candidates"],
        "mapping.candidate_sets": n["mapping.candidates"],
        "mapping.commit_s": s["mapping.commit"],
        "mapping.commits": n["mapping.commit"],
        "avail.busy_s": sum(s[k] for k in s if k.startswith("avail.")),
        "avail.calls": sum(n[k] for k in n if k.startswith("avail.")),
        "redistribution.price_s": s["redistribution.price"],
        "redistribution.price_calls": n["redistribution.price"],
        "redistribution.remap_s": s["redistribution.remap"],
        "redistribution.remap_calls": n["redistribution.remap"],
        "simulation.busy_s": s["simulation.simulate"],
        "simulation.event_s": counters.get("simulation.event_s", 0.0),
        "simulation.events": counters.get("simulation.events", 0),
        "network.solve_s": own.get("network", 0.0),
        "network.solves": counters.get("network.solves", 0),
        "network.solve_rows": counters.get("network.solve_rows", 0),
        "live.inject_s": s["live.inject"], "live.injects": n["live.inject"],
        "live.advance_s": s["live.advance"], "live.drain_s": s["live.drain"],
        "live.event_s": counters.get("live.event_s", 0.0),
        "live.events": counters.get("live.events", 0),
        "online.submit_s": s["online.submit"],
        "online.sched_s": counters.get("online.sched_s", 0.0),
        "online.sim_s": counters.get("online.sim_s", 0.0),
        "online.result_s": s["online.result"],
        "trace.other_s": own.get("other", 0.0),
        "trace.wall_s": summary["wall"],
        "trace.spans": summary["spans"],
    })
    return out


def report(summary: dict, expected: tuple[str, ...]) -> list[str]:
    """Human-readable self-time table, the accounting check, and whether
    the ``expected`` layers (summed) dominate the others."""
    wall, own = summary["wall"], summary["self"]
    lines = [f"traced wall {wall:.3f} s over {summary['spans']} spans; "
             "self time per layer:"]
    for layer, sec in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<15}{sec:9.3f} s {100 * sec / wall:6.1f} %")
    total = sum(own.values())
    lines.append(f"accounting: layers + other = {total:.6f} s, traced wall "
                 f"= {wall:.6f} s (gap {abs(total - wall):.1e} s)")
    layers = {k: v for k, v in own.items() if k != "other"}
    grouped = sum(layers.get(k, 0.0) for k in expected)
    rivals = {k: v for k, v in layers.items() if k not in expected}
    top = max(rivals, key=rivals.get) if rivals else "-"
    ok = grouped > rivals.get(top, 0.0)
    lines.append(f"dominant layer: {'+'.join(expected)} {grouped:.3f} s vs "
                 f"next {top} {rivals.get(top, 0.0):.3f} s: "
                 f"{'as predicted' if ok else 'MISMATCH with the prediction'}")
    return lines
