"""Substrate performance benchmarks and the ``repro bench`` harness.

The paper's whole evaluation (557 configurations) hinges on the simulate-
and-schedule substrate staying fast: flow-level fluid simulation re-solves
Max-Min rates at every event, and the RATS mapping step prices many
candidate placements per task.  This module measures those hot paths,
persists the numbers to a machine-readable ``BENCH_substrate.json``
(the perf trajectory future PRs regress against) and compares runs:
``repro bench --compare BASELINE.json`` exits non-zero when any benchmark
regressed beyond the threshold (25 % by default).

``--append`` records a *trajectory* instead of overwriting: the file
becomes ``{"schema": …, "entries": [entry, …]}`` with one entry per run,
each stamped with the current git revision — so per-commit history stays
inspectable.  ``--compare`` accepts either shape and reads a trajectory's
latest entry.

``profiled(top)`` is the shared cProfile wrapper behind the ``--profile``
flag of ``repro run`` / ``repro campaign``.

The numbers here are wall-clock on the current machine — compare only
against baselines recorded on the same hardware.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_THRESHOLD",
    "dense_dag_schedule",
    "sparse_multicluster_schedule",
    "run_benchmarks",
    "compare_benchmarks",
    "write_results",
    "append_results",
    "latest_entry",
    "profiled",
    "main",
]

BENCH_SCHEMA = 1
DEFAULT_THRESHOLD = 0.25
DEFAULT_OUT = "BENCH_substrate.json"


# --------------------------------------------------------------------- #
# benchmark definitions
# --------------------------------------------------------------------- #
def dense_dag_schedule(n_tasks: int = 100, *, density: float = 0.8):
    """The canonical bench scenario: a dense irregular DAG on grillon.

    Shared by ``repro bench``, the pytest-benchmark suite and the golden
    simulator tests — all three must measure the *same* workload, so the
    shape lives in exactly one place.
    """
    from repro.experiments.scenarios import Scenario
    from repro.platforms.grid5000 import GRILLON
    from repro.scheduling.allocation import hcpa_allocation
    from repro.scheduling.mapping import ListScheduler

    sc = Scenario(family="irregular", n_tasks=n_tasks, width=0.5,
                  density=density, regularity=0.8, jump=2, sample=0)
    g = sc.build()
    model = GRILLON.performance_model()
    alloc = hcpa_allocation(g, model, GRILLON.num_procs).allocation
    return ListScheduler(g, GRILLON, model, alloc).run()


def sparse_multicluster_schedule(n_clusters: int = 12, chain_len: int = 40,
                                 free_steps: int = 5, m: float = 4.0e6):
    """A wide-but-sparse multi-cluster workload: independent pipelines.

    One pipeline per cluster, alternating a real 8→5-processor
    redistribution with ``free_steps`` same-set (free) hops, with
    rng-jittered task durations so the pipelines interleave instead of
    running in lock-step.  Concurrent transfers touch disjoint processor
    sets, so the active flows decompose into one link-connected component
    per cluster — the regime the lazy component-scoped Max-Min
    maintenance is built for (a dense single-cluster DAG degenerates to
    one component; this scenario keeps ~``n_clusters`` alive).  The 8→5
    shape is deliberate: ``gcd(8, 5) = 1`` keeps each redistribution's
    banded communication matrix link-connected, so a transfer is exactly
    one component (a ``gcd > 1`` band falls apart into numerically
    symmetric halves whose completions straddle one ulp).
    """
    from repro.dag.task import Task, TaskGraph
    from repro.platforms.cluster import Cluster
    from repro.platforms.multicluster import MultiClusterPlatform
    from repro.scheduling.schedule import Schedule, ScheduleEntry
    from repro.utils.rng import spawn_rng

    clusters = tuple(Cluster(name=f"c{i}", num_procs=16, speed_flops=3.0e9)
                     for i in range(n_clusters))
    platform = MultiClusterPlatform(clusters=clusters, name="sparse-grid")
    graph = TaskGraph(name="sparse-pipelines")
    schedule = Schedule(graph=graph, cluster=platform)
    model = platform.performance_model()
    rng = spawn_rng("sparse-multicluster-bench")
    period = free_steps + 1
    for c in range(n_clusters):
        off = platform.offsets[c]
        wide = tuple(range(off, off + 8))
        narrow = tuple(range(off + 8, off + 13))
        procs, side, prev, t_fin = wide, 0, None, 0.0
        for i in range(chain_len):
            # continuous jitter: near-tie completion times across
            # pipelines would otherwise depend on FP event coalescing
            flops = 1.2e9 * (1.0 + 0.2 * rng.random())
            task = Task(name=f"p{c}t{i}", data_elements=m, flops=flops,
                        alpha=0.0)
            graph.add_task(task)
            if i > 0:
                graph.add_edge(prev, task.name)
            if i > 0 and i % period == 0:
                side ^= 1
                procs = narrow if side else wide
            dur = model.time(task, len(procs))
            schedule.add(ScheduleEntry(task=task.name, procs=procs,
                                       start=t_fin, finish=t_fin + dur))
            t_fin += dur
            prev = task.name
    schedule.validate()
    return schedule


def large_platform_jobs(n_clusters: int = 128, procs: int = 192,
                        n_jobs: int = 352, chain_len: int = 30,
                        m: float = 4.0e6):
    """Many-cluster platform + per-cluster pipeline jobs for streaming.

    The regime ROADMAP item 4 targets: ≥10k links (128 fat clusters ×
    192 procs → 49,408 — a shared service grid where streaming jobs use
    a slice of each cluster, so per-solve cost is all about *not*
    touching platform-sized arrays), jobs landing round-robin across
    clusters so the
    live flow set stays component-sparse, and *every* hop a real 16→11
    redistribution (``gcd = 1`` keeps each banded matrix one component,
    as in :func:`sparse_multicluster_schedule`).  Overlapping jobs on
    one cluster merge components; their staggered drains are what the
    dynamic split machinery recovers from.  Returns the platform and
    one t=0-based :class:`Schedule` per job (the live engine reads only
    durations and per-processor order, so injection time is free).
    """
    from repro.dag.task import Task, TaskGraph
    from repro.platforms.cluster import Cluster
    from repro.platforms.multicluster import MultiClusterPlatform
    from repro.scheduling.schedule import Schedule, ScheduleEntry
    from repro.utils.rng import spawn_rng

    clusters = tuple(Cluster(name=f"c{i}", num_procs=procs,
                             speed_flops=3.0e9)
                     for i in range(n_clusters))
    platform = MultiClusterPlatform(clusters=clusters, name="large-grid")
    model = platform.performance_model()
    rng = spawn_rng("large-platform-bench")
    jobs = []
    for j in range(n_jobs):
        off = platform.offsets[j % n_clusters]
        wide = tuple(range(off, off + 16))
        narrow = tuple(range(off + 16, off + 27))
        graph = TaskGraph(name=f"job{j}")
        schedule = Schedule(graph=graph, cluster=platform)
        procs_now, side, prev, t_fin = wide, 0, None, 0.0
        for i in range(chain_len):
            # continuous jitter: keeps concurrent pipelines off exact
            # event ties (see sparse_multicluster_schedule)
            flops = 1.2e9 * (1.0 + 0.2 * rng.random())
            task = Task(name=f"t{i}", data_elements=m, flops=flops,
                        alpha=0.0)
            graph.add_task(task)
            if i > 0:
                graph.add_edge(prev, task.name)
                side ^= 1
                procs_now = narrow if side else wide
            dur = model.time(task, len(procs_now))
            schedule.add(ScheduleEntry(task=task.name, procs=procs_now,
                                       start=t_fin, finish=t_fin + dur))
            t_fin += dur
            prev = task.name
        schedule.validate()
        jobs.append(schedule)
    return platform, jobs


def _bench_simulator(n_tasks: int) -> tuple[Callable, dict]:
    from repro.simulation.simulator import FluidSimulator, simulate

    schedule = dense_dag_schedule(n_tasks)

    def run():
        return simulate(schedule)

    res = run()  # warm-up, also yields metadata
    full = FluidSimulator(schedule, lazy=False).run()
    return run, {"n_tasks": n_tasks, "events": res.events,
                 "maxmin_solves": res.maxmin_solves,
                 "solves_full": res.solves_full,
                 "solves_component": res.solves_component,
                 "solves_saved": full.solves_component - res.solves_component,
                 "makespan": res.makespan}


def _bench_component_reuse(n_clusters: int) -> tuple[Callable, dict]:
    from repro.simulation.simulator import FluidSimulator, simulate

    schedule = sparse_multicluster_schedule(n_clusters=n_clusters)

    def run():
        return simulate(schedule)

    res = run()  # warm-up, also yields metadata
    full = FluidSimulator(schedule, lazy=False).run()
    return run, {"n_clusters": n_clusters, "events": res.events,
                 "solves_full": res.solves_full,
                 "solves_component": res.solves_component,
                 "solves_saved": full.solves_component - res.solves_component,
                 "solve_ratio": res.solves_component / max(1, res.events),
                 "makespan": res.makespan}


def _bench_maxmin(n_flows: int) -> tuple[Callable, dict]:
    import numpy as np

    from repro.network.maxmin import maxmin_rates_bundled
    from repro.utils.rng import spawn_rng

    rng = spawn_rng("maxmin-bench")
    n_links = 250
    inner = 50  # sub-millisecond solve: batch it so rounds are stable
    capacities = np.full(n_links, 1.25e8)
    flows = [[int(a), int(b)]
             for a, b in rng.integers(0, n_links, size=(n_flows, 2))]

    def run():
        for _ in range(inner):
            maxmin_rates_bundled(flows, capacities)

    return run, {"n_flows": n_flows, "n_links": n_links, "inner": inner}


def _bench_rats_mapping(n_tasks: int) -> tuple[Callable, dict]:
    from repro.core.params import NAIVE_TIMECOST
    from repro.core.rats import rats_schedule
    from repro.experiments.scenarios import Scenario
    from repro.platforms.grid5000 import GRILLON
    from repro.scheduling.allocation import hcpa_allocation

    sc = Scenario(family="layered", n_tasks=n_tasks, width=0.8, density=0.8,
                  regularity=0.8, sample=0)
    g = sc.build()
    model = GRILLON.performance_model()
    alloc = hcpa_allocation(g, model, GRILLON.num_procs).allocation

    inner = 10

    def run():
        # a fresh scheduler per call: pricing caches must not leak
        # between rounds, the estimator rebuild is part of the cost
        for _ in range(inner):
            rats_schedule(g, GRILLON, NAIVE_TIMECOST, allocation=alloc)

    return run, {"n_tasks": n_tasks, "inner": inner}


def _bench_hcpa(n_tasks: int) -> tuple[Callable, dict]:
    from repro.experiments.scenarios import Scenario
    from repro.platforms.grid5000 import GRILLON
    from repro.scheduling.allocation import hcpa_allocation

    sc = Scenario(family="layered", n_tasks=n_tasks, width=0.8, density=0.8,
                  regularity=0.8, sample=0)
    g = sc.build()
    model = GRILLON.performance_model()

    def run():
        return hcpa_allocation(g, model, GRILLON.num_procs)

    return run, {"n_tasks": n_tasks}


def _bench_online_stream(n_jobs: int,
                         n_clusters: int = 12) -> tuple[Callable, dict]:
    """Online arrivals on the sparse multi-cluster platform.

    A Poisson stream of small layered DAGs admitted, scheduled against
    the residual platform and injected into the live fluid engine —
    traffic, not a batch.  Concurrent jobs land on different clusters, so
    the active flows stay component-sparse: the regime the lazy Max-Min
    maintenance and the component-scoped injection re-solves target.
    """
    from repro.experiments.runner import AlgorithmSpec
    from repro.experiments.scenarios import Scenario
    from repro.online.engine import OnlineSimulator
    from repro.online.stream import PoissonStream
    from repro.platforms.cluster import Cluster
    from repro.platforms.multicluster import MultiClusterPlatform

    clusters = tuple(Cluster(name=f"c{i}", num_procs=16, speed_flops=3.0e9)
                     for i in range(n_clusters))
    platform = MultiClusterPlatform(clusters=clusters, name="sparse-grid")
    scenarios = [Scenario(family="layered", n_tasks=12, width=0.5,
                          density=0.2, regularity=0.8, sample=s)
                 for s in range(4)]
    stream = PoissonStream(rate=2.0, n_jobs=n_jobs, scenarios=scenarios,
                           spec=AlgorithmSpec(label="hcpa"), seed=0)

    def run():
        return OnlineSimulator(platform).run(stream)

    res = run()  # warm-up, also yields metadata
    return run, {"n_jobs": n_jobs, "n_clusters": n_clusters,
                 "events": res.events,
                 "solves_full": res.solves_full,
                 "solves_component": res.solves_component,
                 "makespan": res.makespan,
                 "jct_p50": res.metrics.jct["p50"],
                 # scheduler vs simulator attribution for the trajectory
                 "sched_s": res.sched_s,
                 "sim_s": res.sim_s,
                 # sim_s split further: Max-Min solve time vs event loop
                 "solve_s": res.solve_s,
                 "event_s": res.event_s}


def _bench_large_platform_stream(n_clusters: int, n_jobs: int,
                                 chain_len: int) -> tuple[Callable, dict]:
    """Online Poisson stream on a ≥10k-link grid — the leg-3 showcase.

    Pipelines stream into a persistent :class:`LiveFluidEngine` at
    Poisson arrivals and drain; ~100k+ events at full size.  On a
    platform this wide, per-solve cost is dominated by the O(total
    links) ``bincount``/``levels`` term unless solves are component-
    local, so this bench is where the local link indexing earns its
    keep.
    """
    import numpy as np

    from repro.online.live import LiveFluidEngine
    from repro.utils.rng import spawn_rng

    platform, jobs = large_platform_jobs(n_clusters=n_clusters,
                                         n_jobs=n_jobs,
                                         chain_len=chain_len)
    rng = spawn_rng("large-platform-arrivals")
    arrivals = np.cumsum(rng.exponential(0.35, len(jobs)))

    def run():
        eng = LiveFluidEngine(platform)
        for j, schedule in enumerate(jobs):
            t = float(arrivals[j])
            eng.advance_until(t)
            eng.inject(f"job{j}", schedule, t)
        eng.drain()
        return eng

    ref = run()
    #   ^ untimed warm-up: fills the topology route caches, which
    #     otherwise dominate whichever run goes first; doubles as the
    #     reference the timed run must reproduce
    t0 = time.perf_counter()
    eng = run()
    t_run = time.perf_counter() - t0
    assert eng.events == ref.events and eng.makespan() == ref.makespan()
    return run, {"n_clusters": n_clusters, "n_jobs": n_jobs,
                 "chain_len": chain_len,
                 "n_links": len(platform.topology.capacity_array),
                 "events": eng.events,
                 "solves_component": eng.solves_component,
                 "solve_rows": eng.solve_rows,
                 "makespan": eng.makespan(),
                 # attribution: this bench injects pre-built schedules,
                 # so the whole timed run is simulator work
                 "sched_s": 0.0,
                 "sim_s": t_run,
                 # sim_s split further: Max-Min solve time vs event loop
                 "solve_s": eng.solve_s,
                 "event_s": eng.event_s}


def _bench_schedule_large_platform(n_clusters: int, procs: int,
                                   n_jobs: int,
                                   n_tasks: int) -> tuple[Callable, dict]:
    """Scheduler-dominated streaming on the 24k-processor grid.

    The raw-speed leg's showcase: a sequence of jobs scheduled (RATS
    time-cost, multi-cluster) against the 128×192 platform with residual
    ``proc_release`` folding between jobs — the online engine's
    scheduling loop without the fluid simulation, so the measured time
    is pure two-step scheduling.  ``indexed_speedup`` records the ratio
    against the same loop with the availability index off (per-task full
    scans of every processor); both paths must agree entry-for-entry.
    """
    import numpy as np

    from repro.core.params import RATSParams
    from repro.experiments.scenarios import Scenario
    from repro.platforms.cluster import Cluster
    from repro.platforms.multicluster import MultiClusterPlatform
    from repro.redistribution.cost import RedistributionCost
    from repro.scheduling.allocation import hcpa_allocation
    from repro.scheduling.avail import AvailabilityIndex
    from repro.scheduling.multicluster import MultiClusterRATSScheduler
    from repro.utils.rng import spawn_rng

    clusters = tuple(Cluster(name=f"c{i}", num_procs=procs,
                             speed_flops=3.0e9)
                     for i in range(n_clusters))
    platform = MultiClusterPlatform(clusters=clusters, name="sched-grid")
    model = platform.performance_model()
    graphs = [Scenario(family="layered", n_tasks=n_tasks, width=0.5,
                       density=0.2, regularity=0.8, sample=s).build()
              for s in range(4)]
    allocations = [hcpa_allocation(g, model, platform.num_procs).allocation
                   for g in graphs]
    params = RATSParams("timecost")
    rng = spawn_rng("schedule-large-platform")
    arrivals = np.cumsum(rng.exponential(0.5, n_jobs))

    def _drive(fast: bool):
        # the online scheduling loop, minus the fluid engine: residual
        # availability folds forward job to job, the index stays warm
        index = AvailabilityIndex.for_platform(platform) if fast else None
        redist = RedistributionCost(platform)
        proc_avail = [0.0] * platform.num_procs
        out = []
        for j in range(n_jobs):
            now = float(arrivals[j])
            release = [max(now, t) for t in proc_avail]
            g = graphs[j % len(graphs)]
            sched = MultiClusterRATSScheduler(
                g, platform, allocations[j % len(graphs)], params,
                redist=redist, proc_release=release,
                avail_index=index if fast else False).run()
            for entry in sched.entries.values():
                for p in entry.procs:
                    if entry.finish > proc_avail[p]:
                        proc_avail[p] = entry.finish
            out.append(sched.entries)
        return out

    def run():
        return _drive(True)

    fast = run()  # untimed warm-up fills route/arena caches for both paths
    t0 = time.perf_counter()
    fast = _drive(True)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = _drive(False)
    t_ref = time.perf_counter() - t0
    assert fast == ref  # byte-identical ScheduleEntry lists, per job
    return run, {"n_clusters": n_clusters, "procs": procs,
                 "n_jobs": n_jobs, "n_tasks": n_tasks,
                 "num_procs": platform.num_procs,
                 "indexed_speedup": t_ref / max(t_fast, 1e-9)}


def _benchmarks(quick: bool) -> dict[str, Callable[[], tuple[Callable, dict]]]:
    sim_tasks = 40 if quick else 100
    sched_tasks = 40 if quick else 100
    flows = 200 if quick else 1000
    grid = 4 if quick else 12
    jobs = 40 if quick else 200
    return {
        "simulator_dense_dag": lambda: _bench_simulator(sim_tasks),
        "maxmin_component_reuse": lambda: _bench_component_reuse(grid),
        "maxmin_bundled_random": lambda: _bench_maxmin(flows),
        "rats_timecost_mapping": lambda: _bench_rats_mapping(sched_tasks),
        "hcpa_allocation": lambda: _bench_hcpa(sched_tasks),
        "online_poisson_stream": lambda: _bench_online_stream(
            jobs, n_clusters=grid),
        "large_platform_stream": lambda: _bench_large_platform_stream(
            n_clusters=16 if quick else 128,
            n_jobs=48 if quick else 352,
            chain_len=20 if quick else 30),
        "schedule_large_platform": lambda: _bench_schedule_large_platform(
            n_clusters=16 if quick else 128,
            procs=48 if quick else 192,
            n_jobs=8 if quick else 24,
            n_tasks=10 if quick else 12),
    }


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
def run_benchmarks(*, rounds: int = 3, quick: bool = False,
                   only: list[str] | None = None,
                   profile: int | None = None,
                   log=None) -> dict:
    """Run the substrate benchmarks; returns the JSON-ready result dict.

    ``profile`` runs one extra cProfiled pass per benchmark after its
    timed rounds and prints the top-``profile`` entries to stderr — the
    timed rounds themselves stay unprofiled, so the recorded numbers are
    not distorted by tracing overhead.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    available = _benchmarks(quick)
    if only:
        unknown = sorted(set(only) - set(available))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; available: "
                f"{sorted(available)}")
    results: dict[str, dict] = {}
    for name, setup in available.items():
        if only and name not in only:
            continue
        if log:
            log(f"  {name} ...")
        fn, meta = setup()
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        if profile:
            if log:
                log(f"  {name}: profiling one extra pass ...")
            print(f"\n=== {name} ===", file=sys.stderr)
            with profiled(profile):
                fn()
        results[name] = {
            "mean_s": sum(times) / len(times),
            "min_s": min(times),
            "rounds": rounds,
            "meta": meta,
        }
        if log:
            log(f"  {name}: min {min(times):.4f}s  "
                f"mean {results[name]['mean_s']:.4f}s")
    return {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "benchmarks": results,
    }


def write_results(results: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return path


def _git_rev() -> str | None:
    """The current short git revision, or ``None`` outside a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def latest_entry(data: dict) -> dict:
    """The newest benchmark entry of a result file, either shape.

    A plain single-run file *is* its entry; a ``--append`` trajectory
    (``{"entries": [...]}``) yields its last element.
    """
    if "entries" in data:
        entries = data["entries"]
        if not entries:
            raise ValueError("benchmark trajectory has no entries")
        return entries[-1]
    return data


def append_results(results: dict, path: str | Path) -> Path:
    """Append one entry to a benchmark trajectory file.

    Stamps ``results`` with the current git revision and appends it to the
    ``entries`` list at ``path``.  A pre-existing single-run file is
    upgraded in place: its old entry becomes the first of the trajectory,
    so nothing recorded before ``--append`` existed is lost.
    """
    path = Path(path)
    entry = {**results, "git_rev": _git_rev()}
    entries: list[dict] = []
    thresholds = None
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"malformed benchmark file {path}: {exc}") \
                from None
        if isinstance(existing, dict) and "entries" in existing:
            entries = list(existing["entries"])
            thresholds = existing.get("thresholds")
        elif isinstance(existing, dict) and "benchmarks" in existing:
            entries = [existing]
            thresholds = existing.get("thresholds")
        else:
            # neither shape we know how to extend: overwriting would
            # silently destroy whatever this file is
            raise ValueError(
                f"{path} is neither a bench result nor a trajectory; "
                "refusing to overwrite it with --append")
    entries.append(entry)
    payload: dict = {"schema": BENCH_SCHEMA, "entries": entries}
    if thresholds is not None:   # per-benchmark gates ride along
        payload["thresholds"] = thresholds
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def compare_benchmarks(current: dict, baseline: dict,
                       threshold: float = DEFAULT_THRESHOLD,
                       per_benchmark: Mapping[str, float] | None = None,
                       ) -> list[str]:
    """Regressions of ``current`` against ``baseline``.

    A benchmark regresses when its best-of-rounds time exceeds the
    baseline's by more than its threshold (0.25 = 25 %).  The baseline
    file may carry a per-benchmark ``"thresholds"`` dict (passed here as
    ``per_benchmark``): fast, stable benchmarks can then gate tightly
    while noisier scheduler benches keep a looser (or the global
    ``threshold``) bound.  Benchmarks present on only one side are
    reported as informational skips, not regressions.  Returns
    human-readable regression lines (empty = pass).
    """
    regressions: list[str] = []
    per_benchmark = per_benchmark or {}
    cur = current.get("benchmarks", {})
    base = baseline.get("benchmarks", {})
    for name in sorted(set(cur) & set(base)):
        t_new = cur[name]["min_s"]
        t_old = base[name]["min_s"]
        if t_old <= 0:
            continue
        limit = float(per_benchmark.get(name, threshold))
        ratio = t_new / t_old
        if ratio > 1.0 + limit:
            regressions.append(
                f"{name}: {t_old:.4f}s -> {t_new:.4f}s "
                f"({(ratio - 1) * 100:+.1f}%, threshold "
                f"{limit * 100:.0f}%)")
    return regressions


def render_comparison(current: dict, baseline: dict) -> str:
    """Side-by-side table of the shared benchmarks."""
    cur = current.get("benchmarks", {})
    base = baseline.get("benchmarks", {})
    lines = [f"{'benchmark':<28}{'baseline':>12}{'current':>12}{'ratio':>9}"]
    for name in sorted(set(cur) | set(base)):
        t_new = cur.get(name, {}).get("min_s")
        t_old = base.get(name, {}).get("min_s")
        if t_new is None or t_old is None:
            missing = "current" if t_new is None else "baseline"
            lines.append(f"{name:<28}{'(only in ' + missing + ')':>33}")
            continue
        ratio = t_new / t_old if t_old > 0 else float("inf")
        lines.append(f"{name:<28}{t_old:>11.4f}s{t_new:>11.4f}s"
                     f"{ratio:>8.2f}x")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# profiling support for `repro run` / `repro campaign`
# --------------------------------------------------------------------- #
@contextmanager
def profiled(top: int | None, stream=None):
    """cProfile the enclosed block and print the top-``top`` entries.

    ``top=None`` disables profiling (the block runs untouched), so call
    sites can wrap unconditionally with the CLI flag's value.
    """
    if not top:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=stream or sys.stderr)
        stats.sort_stats("cumulative")
        print(f"\n--- cProfile: top {top} by cumulative time ---",
              file=stream or sys.stderr)
        stats.print_stats(top)


# --------------------------------------------------------------------- #
# CLI entry (wired as `repro bench`)
# --------------------------------------------------------------------- #
def add_bench_arguments(parser) -> None:
    parser.add_argument("--out", type=Path, default=Path(DEFAULT_OUT),
                        metavar="PATH",
                        help=f"result file (default {DEFAULT_OUT})")
    parser.add_argument("--append", action="store_true",
                        help="append a git-rev-stamped entry to --out "
                             "instead of overwriting, keeping the "
                             "per-commit perf trajectory inspectable")
    parser.add_argument("--compare", type=Path, default=None,
                        metavar="BASELINE",
                        help="compare against a previous result file "
                             "(the latest entry of a trajectory); exit "
                             "non-zero on regression")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD, metavar="FRACTION",
                        help="relative slowdown tolerated by --compare "
                             "(default 0.25 = 25%%); a 'thresholds' dict "
                             "in the baseline file overrides it per "
                             "benchmark")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per benchmark (best-of counts)")
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (for smoke tests)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", help="run only the named benchmark "
                        "(repeatable)")
    parser.add_argument("--warm-kernels", action="store_true",
                        help="precompile the C solver kernels into the "
                             "content-addressed cache and exit (CI/install "
                             "hook; cold starts then skip "
                             "compile-at-first-use)")
    parser.add_argument("--profile", nargs="?", const=25, type=int,
                        metavar="N",
                        help="cProfile one extra pass per benchmark and "
                             "print the top N entries (default 25) — "
                             "timed rounds stay unprofiled")
    parser.add_argument("--quiet", action="store_true")


def main(args) -> int:
    log = None if args.quiet else (
        lambda msg: print(msg, file=sys.stderr, flush=True))
    if getattr(args, "warm_kernels", False):
        from repro.network._ckernel import warm

        status = warm()
        print(json.dumps(status, indent=1, sort_keys=True))
        # an environment without a compiler is not an error: the numpy
        # fallback is always available, warming is best-effort
        return 0
    # read the baseline FIRST: with the default --out, comparing against
    # the committed baseline would otherwise overwrite it before the read
    # and vacuously compare the run against itself
    baseline = None
    baseline_thresholds: dict | None = None
    if args.compare is not None:
        try:
            raw_baseline = json.loads(Path(args.compare).read_text())
            baseline = latest_entry(raw_baseline)
        except OSError as exc:
            raise SystemExit(f"cannot read baseline: {exc}") from None
        except ValueError as exc:
            raise SystemExit(
                f"malformed baseline {args.compare}: {exc}") from None
        # per-benchmark gates: a "thresholds" dict at the top of the
        # baseline file (either shape) overrides --threshold by name
        baseline_thresholds = (raw_baseline.get("thresholds")
                               or baseline.get("thresholds"))
        if baseline_thresholds is not None and not (
                isinstance(baseline_thresholds, dict)
                and all(isinstance(v, (int, float))
                        for v in baseline_thresholds.values())):
            raise SystemExit(
                f"malformed baseline {args.compare}: 'thresholds' must "
                "map benchmark names to fractions")

    if log:
        log(f"running substrate benchmarks "
            f"({args.rounds} rounds{', quick' if args.quick else ''}):")
    try:
        results = run_benchmarks(rounds=args.rounds, quick=args.quick,
                                 only=args.only,
                                 profile=getattr(args, "profile", None),
                                 log=log)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    regressions: list[str] = []
    if baseline is not None:
        if baseline.get("quick") != results.get("quick"):
            print("warning: comparing quick and full-size runs",
                  file=sys.stderr)
        if baseline_thresholds:
            known = (set(results.get("benchmarks", {}))
                     | set(baseline.get("benchmarks", {})))
            stale = sorted(set(baseline_thresholds) - known)
            if stale:
                # a typo'd or renamed benchmark silently loses its gate —
                # make that visible instead
                print(f"warning: thresholds for unknown benchmark(s) "
                      f"{stale} match nothing in the baseline or this "
                      "run", file=sys.stderr)
        regressions = compare_benchmarks(results, baseline,
                                         threshold=args.threshold,
                                         per_benchmark=baseline_thresholds)

    if args.append:
        try:
            out = append_results(results, args.out)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        n = len(json.loads(out.read_text())["entries"])
        print(f"appended to {out} ({n} entr{'ies' if n != 1 else 'y'})")
    elif (regressions and args.compare is not None
          and Path(args.out).resolve() == Path(args.compare).resolve()):
        # a regressed run must not clobber the very baseline it failed
        # against — the next run would compare against the regression
        # and pass
        print(f"not overwriting baseline {args.out} with regressed "
              "numbers", file=sys.stderr)
    else:
        out = write_results(results, args.out)
        print(f"wrote {out}")

    if baseline is None:
        return 0
    print(render_comparison(results, baseline))
    if regressions:
        print(f"\nPERF REGRESSION ({len(regressions)}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nno regression beyond {args.threshold * 100:.0f}%")
    return 0
