"""Golden event-trace replay of a multi-job live stream on grelon.

``sparse_multicluster_events.json`` pins one job injected at t=0.  This
golden pins what only a stream exercises: jobs entering a shared
:class:`~repro.online.live.LiveFluidEngine` mid-flight on grelon's
hierarchical network (five cabinets of 24 nodes; an intra-cabinet route
has 100 µs latency, an inter-cabinet route 200 µs).  The scenario is
built so that

* every job is a pipeline of 16 → 11 (and 11 → 16) processor hops whose
  sets straddle a cabinet boundary, so one edge's flows release at two
  instants;
* jobs ``b`` and ``c`` have identical schedules on disjoint processor
  sets and arrive at the same instant, so two edges release together;
* job ``d``'s sets take half of ``b``'s and half of ``c``'s, so its
  edges revive pairs drained in two different components and activate
  one new pair bridging them: those releases merge components;
* jobs ``a2`` and ``c2`` reuse earlier jobs' sets, so their edges
  revive drained pairs in place.

The default engine and the ``lazy=False`` full-solve oracle must both
reproduce the golden byte for byte.  If an intentional engine change
alters the trace, regenerate the golden with
``python tests/test_live_stream_golden.py`` and commit the diff.
"""

import json
from pathlib import Path

import pytest

from repro.dag.task import Task, TaskGraph
from repro.online.live import LiveFluidEngine
from repro.platforms.grid5000 import GRELON
from repro.scheduling.schedule import Schedule, ScheduleEntry
from repro.simulation import SimulationResult, canonical_event_trace
from repro.utils.rng import spawn_rng

GOLDEN = Path(__file__).parent / "golden" / "live_stream_events.json"

CHAIN = 8

# grelon cabinets: 0-23, 24-47, 48-71, 72-95, 96-119
B_SETS = (tuple(range(0, 16)), tuple(range(16, 27)))    # narrow: 8 | 3
C_SETS = (tuple(range(48, 64)), tuple(range(64, 75)))   # same shape as b
A_SETS = (tuple(range(84, 100)), tuple(range(100, 111)))  # wide: 12 | 4
D_SETS = (B_SETS[0][:8] + C_SETS[0][8:], B_SETS[1][:6] + C_SETS[1][6:])

#: (job id, arrival time, (wide set, narrow set), duration seed)
JOBS = (
    ("b", 0.0, B_SETS, "bc"),
    ("c", 0.0, C_SETS, "bc"),
    ("d", 0.1, D_SETS, "d"),
    ("a", 0.9, A_SETS, "a"),
    ("a2", 1.2, A_SETS, "a2"),
    ("c2", 1.5, C_SETS, "c2"),
)


def _pipeline(name: str, sets, seed: str) -> Schedule:
    """A ``CHAIN``-task pipeline alternating between the two sets."""
    model = GRELON.performance_model()
    rng = spawn_rng("live-stream-golden", seed)
    graph = TaskGraph(name=name)
    schedule = Schedule(graph=graph, cluster=GRELON)
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
    return schedule


def _run(**kwargs) -> dict:
    eng = LiveFluidEngine(GRELON, collect_flow_traces=True, **kwargs)
    for job_id, at, sets, seed in JOBS:
        eng.advance_until(at)
        eng.inject(job_id, _pipeline(job_id, sets, seed), at)
    eng.drain()
    res = SimulationResult(makespan=eng.makespan(), task_traces=eng.traces,
                           flow_traces=eng.flow_traces, events=eng.events)
    trace = canonical_event_trace(res)
    trace["jobs"] = {j: [s.inject_time, s.start, s.completion]
                     for j, s in eng.jobs.items()}
    return trace


def _encode(trace: dict) -> str:
    return json.dumps(trace, indent=1) + "\n"


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "full-solve"])
def test_live_stream_replays_golden_exactly(lazy):
    assert _encode(_run(lazy=lazy)) == GOLDEN.read_text()


def test_scenario_exercises_the_stream_shapes():
    """Guard the scenario itself: the shapes the docstring promises."""
    golden = json.loads(GOLDEN.read_text())
    releases: dict[tuple, set] = {}
    for fl in golden["flows"]:
        releases.setdefault(tuple(fl["edge"]), set()).add(fl["release"])
    # some edge releases its flows at two distinct instants
    assert max(len(ts) for ts in releases.values()) == 2
    # b and c release their edges at the very same instants
    for i in range(1, CHAIN):
        edge_b, edge_c = (f"b/t{i - 1}", f"b/t{i}"), (f"c/t{i - 1}", f"c/t{i}")
        assert releases[edge_b] == releases[edge_c]
    assert set(golden["jobs"]) == {j for j, *_ in JOBS}
    assert all(c is not None for _, _, c in golden["jobs"].values())


def _regenerate() -> None:  # pragma: no cover - manual tool
    trace = _run()
    assert _run(lazy=False) == trace
    GOLDEN.write_text(_encode(trace))
    print(f"wrote {GOLDEN}: {len(trace['tasks'])} tasks, "
          f"{len(trace['flows'])} flows, {trace['events']} events")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
