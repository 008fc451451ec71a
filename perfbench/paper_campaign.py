"""``paper_campaign``: the paper's own evaluation path, closed loop, serial.

A family-stratified slice of the Table III application shapes, each on
chti, grillon and grelon under ``hcpa``, ``rats-delta`` and
``rats-timecost``.  Every configuration goes through
``ExperimentRunner.run_matrix`` (default runner: one job, no store), which
builds the graph, allocates, maps and fluid-simulates it.  Every shape
runs its first three instances (``sample``): the costs of one shape's
instances differ by up to 1.5x, so instances picked by the seed would
move the percentiles from seed to seed.  The seed sets the order in
which the scenarios run; each scenario runs its clusters and algorithms
in a fixed order, so the same configuration always pays for building
the graph and allocation a pass shares between its algorithms.

One pass runs every configuration once on a fresh runner, as a campaign
of new configurations would; the timed window repeats passes.  A
configuration's latency is its median over the passes; throughput is the
number of configurations over the sum of those medians.  Set-up builds
every graph and allocation once (cold start: lazy imports, kernel
loading, the clusters' route caches).
"""

from __future__ import annotations

import random
import time

import tracing
from common import (SETUPS, Checks, HostSpeed, Outcome, digest,
                    finite_positive, per_op_medians, percentile, run_passes,
                    self_peak_rss_mb, timed_setups)

CLUSTERS = ("chti", "grillon", "grelon")
ALGORITHMS = ("hcpa", "rats-delta", "rats-timecost")

# Table III shapes (n_tasks, width, density, regularity[, jump]) spread
# over sizes, widths and densities.  Table III draws 3 samples of each
# random shape and 25 of each kernel shape.
LAYERED = ((25, 0.8, 0.8, 0.2), (50, 0.2, 0.2, 0.8), (50, 0.8, 0.8, 0.8))
IRREGULAR = ((25, 0.5, 0.2, 0.8, 1), (25, 0.8, 0.8, 0.2, 4),
             (100, 0.8, 0.2, 0.2, 1))
FFT_POINTS = (4, 16)
SAMPLES = 3


def make_slice():
    from repro.experiments.scenarios import Scenario

    shapes = [{"family": "layered", "n_tasks": n, "width": w, "density": d,
               "regularity": r} for n, w, d, r in LAYERED]
    shapes += [{"family": "irregular", "n_tasks": n, "width": w,
                "density": d, "regularity": r, "jump": j}
               for n, w, d, r, j in IRREGULAR]
    shapes += [{"family": "fft", "k": k} for k in FFT_POINTS]
    shapes.append({"family": "strassen"})
    return [Scenario(sample=sample, **shape) for shape in shapes
            for sample in range(SAMPLES)]


def setup(seed: int):
    from repro.experiments.experiment import as_algorithm_spec
    from repro.experiments.runner import ExperimentRunner
    from repro.registry import platforms

    scenarios = make_slice()
    random.Random(seed).shuffle(scenarios)
    clusters = [platforms.build(name) for name in CLUSTERS]
    specs = [as_algorithm_spec(name) for name in ALGORITHMS]
    runner = ExperimentRunner()
    for sc in scenarios:
        for cl in clusters:
            runner.allocation_for(sc, cl, "hcpa")
    cells = [(sc, cl, spec) for sc in scenarios for cl in clusters
             for spec in specs]
    return cells


def one_pass(cells, checks: Checks, calibrate: bool = False):
    """Every configuration once; returns per-configuration seconds (at the
    reference host speed if ``calibrate``) and the results (``None`` for a
    configuration that raised)."""
    from repro.experiments.runner import ExperimentRunner

    speed = HostSpeed(calibrate)
    runner = ExperimentRunner()
    lat, results = [], []
    for sc, cl, spec in cells:
        speed.tick()
        t0 = time.perf_counter()
        try:
            (res,) = runner.run_matrix([sc], [cl], [spec])
        except Exception as exc:  # a failed configuration is a result
            res = None
            checks.check(False, f"{sc.scenario_id}/{cl.name}/{spec.label}: "
                                f"{exc!r}")
        lat.append(time.perf_counter() - t0)
        results.append(res)
    speed.tick()
    return speed.scale_ops(lat), results


def result_rows(results):
    return [(r.scenario_id, r.cluster, r.algorithm, r.makespan,
             r.estimated_makespan, r.work, r.n_tasks, r.stretches, r.packs,
             r.sames, r.solves_component) if r is not None else None
            for r in results]


def check_outputs(cells, results, checks: Checks) -> None:
    """Each result is finite and positive, and its schedule — rebuilt with
    the registry's default schedulers — validates and has the same
    estimated makespan."""
    from repro.registry import allocators, schedulers

    built = {}      # the algorithms of a scenario and cluster share these
    for (sc, cl, spec), res in zip(cells, results):
        if res is None:
            continue
        what = f"{sc.scenario_id}/{cl.name}/{spec.label}"
        checks.check(finite_positive(res.makespan)
                     and finite_positive(res.estimated_makespan),
                     f"{what}: makespan {res.makespan}")
        key = (sc.scenario_id, cl.name, spec.allocator)
        if key not in built:
            graph, model = sc.build(), cl.performance_model()
            built[key] = graph, model, allocators.build(
                spec.allocator, graph, model, cl.num_procs).allocation
        graph, model, alloc = built[key]
        kind = "rats" if spec.is_adaptive else "list"
        schedule = schedulers.build(kind, graph, cl, model, alloc,
                                    params=spec.params).run()
        try:
            schedule.validate()
            valid = True
        except ValueError:
            valid = False
        checks.check(valid and schedule.makespan == res.estimated_makespan
                     and len(schedule.entries) == res.n_tasks,
                     f"{what}: schedule invalid or estimate differs")


def run(seed: int, seconds: float, traced: bool, trace_out) -> Outcome:
    checks = Checks()
    if not traced:
        cells, setup_s = timed_setups(lambda: setup(seed), SETUPS)
        _, passes = run_passes(lambda: one_pass(cells, checks, True),
                               seconds)
        first = result_rows(passes[0][1])
        for _, results in passes:
            checks.check(result_rows(results) == first,
                         "passes disagree: outputs are not deterministic")
        check_outputs(cells, passes[0][1], checks)
        checks.attempted += len(cells) * len(passes)
        lat = per_op_medians([pass_lat for pass_lat, _ in passes])
        metrics = {"setup_s": setup_s,
                   "ops_per_s": len(cells) / sum(lat),
                   "op_p50_ms": percentile(lat, 50) * 1e3,
                   "op_p90_ms": percentile(lat, 90) * 1e3,
                   "peak_rss_mb": self_peak_rss_mb()}
        return Outcome(metrics, checks.attempted, checks.failed,
                       digest(first), checks.notes)

    cells = setup(seed)
    plain, traced, tracer, root, overhead = tracing.traced_pass(
        lambda: one_pass(cells, checks), lambda r: r[1])
    summary = tracer.summarize(root)
    tracer.dump(trace_out)
    rows = result_rows(traced)
    checks.check(rows == result_rows(plain),
                 "traced and untraced outputs differ")
    check_outputs(cells, traced, checks)
    checks.attempted += 3 * len(cells)
    metrics = tracing.layer_metrics(summary, tracer.counters)
    metrics["trace.overhead_frac"] = overhead
    notes = checks.notes + tracing.report(summary, ("simulation",))
    return Outcome(metrics, checks.attempted, checks.failed, digest(rows),
                   notes)
