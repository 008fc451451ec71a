"""``large_grid_stream``: pipeline jobs streamed into one live fluid engine.

A 128-cluster grid of 192-processor clusters (49,408 links).  Each job is
a 30-task pipeline pinned to one cluster whose every hop is a 16 → 11 (or
11 → 16) processor redistribution; ``gcd(16, 11) = 1`` keeps each
transfer one link-connected component.  Jobs land round-robin over the
clusters at Poisson arrivals and are injected into a default
``LiveFluidEngine(platform)`` through ``advance_until``/``inject``, then
drained.  No scheduling: the event loop and the per-component solves do
the work, over many small components — the opposite use of the
simulation layer from ``paper_campaign``'s one dense component.

The seed draws the task durations (±20 % jitter) and the arrival times.
One pass streams every job through a fresh engine; the timed window
repeats passes.  An arrival's latency (advance to it, then inject) is its
median over the passes; throughput is the number of jobs over the sum of
those medians and the final drain's.  Set-up builds the platform and the
jobs and fills the platform's route caches.
"""

from __future__ import annotations

import math
import time

import tracing
from common import (SETUPS, Checks, HostSpeed, Outcome, digest,
                    finite_positive, per_op_medians, percentile, run_passes,
                    self_peak_rss_mb, timed_setups)

N_CLUSTERS, PROCS = 128, 192
N_JOBS, CHAIN = 352, 30
WIDE, NARROW = 16, 11
MEAN_GAP_S = 0.35          # virtual seconds between arrivals


def build_inputs(seed: int):
    import numpy as np

    from repro.dag.task import Task, TaskGraph
    from repro.platforms.cluster import Cluster
    from repro.platforms.multicluster import MultiClusterPlatform
    from repro.scheduling.schedule import Schedule, ScheduleEntry

    rng = np.random.default_rng(seed)
    clusters = tuple(Cluster(name=f"c{i}", num_procs=PROCS,
                             speed_flops=3.0e9) for i in range(N_CLUSTERS))
    platform = MultiClusterPlatform(clusters=clusters, name="large-grid")
    model = platform.performance_model()
    jobs = []
    for j in range(N_JOBS):
        off = platform.offsets[j % N_CLUSTERS]
        sets = (tuple(range(off, off + WIDE)),
                tuple(range(off + WIDE, off + WIDE + NARROW)))
        graph = TaskGraph(name=f"job{j}")
        schedule = Schedule(graph=graph, cluster=platform)
        t = 0.0
        for i in range(CHAIN):
            task = Task(name=f"t{i}", data_elements=4.0e6,
                        flops=1.2e9 * (1.0 + 0.2 * rng.random()), alpha=0.0)
            graph.add_task(task)
            if i:
                graph.add_edge(f"t{i - 1}", task.name)
            procs = sets[i % 2]
            dur = model.time(task, len(procs))
            schedule.add(ScheduleEntry(task=task.name, procs=procs,
                                       start=t, finish=t + dur))
            t += dur
        schedule.validate()
        jobs.append(schedule)
    arrivals = [float(x) for x in
                np.cumsum(rng.exponential(MEAN_GAP_S, N_JOBS))]
    return platform, jobs, arrivals


def warm_routes(platform, jobs) -> None:
    """Resolve every route the jobs' transfers use (the engine's cache)."""
    from repro.redistribution import redistribution_flows

    topo = platform.topology
    topo.capacity_array         # built once per platform, on first read
    for schedule in jobs:
        for u, v, data in schedule.graph.edges():
            for flow in redistribution_flows(schedule[u].procs,
                                             schedule[v].procs, data):
                topo.route(flow.src, flow.dst)
                topo.route_indices(flow.src, flow.dst)


def setup(seed: int):
    platform, jobs, arrivals = build_inputs(seed)
    t0 = time.perf_counter()
    warm_routes(platform, jobs)
    return platform, jobs, arrivals, time.perf_counter() - t0


def one_pass(platform, jobs, arrivals, calibrate: bool = False):
    """Stream every job through a fresh engine; returns the seconds of
    each arrival (advance + inject) followed by the final drain's (at the
    reference host speed if ``calibrate``), and the drained engine."""
    from repro.online.live import LiveFluidEngine

    speed = HostSpeed(calibrate)
    engine = LiveFluidEngine(platform)
    lat = []
    for j, schedule in enumerate(jobs):
        speed.tick()
        t0 = time.perf_counter()
        engine.advance_until(arrivals[j])
        engine.inject(f"job{j}", schedule, arrivals[j])
        lat.append(time.perf_counter() - t0)
    speed.tick()
    t0 = time.perf_counter()
    engine.drain()
    lat.append(time.perf_counter() - t0)
    speed.tick()
    return speed.scale_ops(lat), engine


def outputs(engine, arrivals, checks: Checks):
    """Check every job completed with a finite JCT; returns digest rows."""
    done = engine.pop_completed_jobs()
    checks.check(sorted(done) == sorted(f"job{j}" for j in range(N_JOBS)),
                 f"{len(done)} of {N_JOBS} jobs completed")
    rows = [(engine.events, engine.makespan())]
    for j in range(N_JOBS):
        state = engine.jobs.get(f"job{j}")
        jct = (state.completion - arrivals[j]
               if state is not None and state.completion is not None
               else math.nan)
        checks.check(finite_positive(jct), f"job{j}: jct {jct}")
        rows.append((f"job{j}", state.start if state else None, jct))
    return rows


def run(seed: int, seconds: float, traced: bool, trace_out) -> Outcome:
    checks = Checks()
    if not traced:
        inputs, setup_s = timed_setups(lambda: setup(seed), SETUPS)
        platform, jobs, arrivals, _ = inputs
        _, passes = run_passes(
            lambda: one_pass(platform, jobs, arrivals, calibrate=True),
            seconds, finish=lambda r: (r[0], outputs(r[1], arrivals, checks)))
        rows = [pass_rows for _, pass_rows in passes]
        for other in rows[1:]:
            checks.check(other == rows[0],
                         "passes disagree: outputs are not deterministic")
        checks.attempted += N_JOBS * len(passes)
        times = per_op_medians([pass_times for pass_times, _ in passes])
        metrics = {"setup_s": setup_s,
                   "ops_per_s": N_JOBS / sum(times),
                   "op_p50_ms": percentile(times[:-1], 50) * 1e3,
                   "op_p90_ms": percentile(times[:-1], 90) * 1e3,
                   "peak_rss_mb": self_peak_rss_mb()}
        return Outcome(metrics, checks.attempted, checks.failed,
                       digest(rows[0]), checks.notes)

    platform, jobs, arrivals, route_warm_s = setup(seed)

    def finish(result):
        engine = result[1]
        return outputs(engine, arrivals, checks), tracing.engine_counters(
            engine)

    (plain_rows, _), (rows, counters), tracer, root, overhead = \
        tracing.traced_pass(lambda: one_pass(platform, jobs, arrivals),
                            finish)
    tracer.counters.update(counters)
    summary = tracer.summarize(root)
    tracer.dump(trace_out)
    checks.check(rows == plain_rows, "traced and untraced outputs differ")
    checks.attempted += 3 * N_JOBS
    metrics = tracing.layer_metrics(summary, tracer.counters)
    metrics["trace.overhead_frac"] = overhead
    metrics["platforms.route_warm_s"] = route_warm_s
    notes = checks.notes + tracing.report(summary, ("live",))
    return Outcome(metrics, checks.attempted, checks.failed, digest(rows),
                   notes)
