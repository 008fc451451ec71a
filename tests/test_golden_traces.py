"""Golden event-trace replay of the sparse multi-cluster bench scenario.

The golden file pins the *exact* event trace (every task and flow start /
finish, shortest-repr floats) of ``sparse_multicluster_schedule`` — the
scenario the lazy component-scoped Max-Min maintenance is built for.  All
engines must reproduce it byte-for-byte:

* the bundled lazy engine (the default fast path),
* the bundled full-solve oracle (``lazy=False``),
* the online :class:`~repro.online.live.LiveFluidEngine`, primed with the
  whole schedule at t=0 under a job id (the online/batch equivalence
  bridge: ``simulate`` runs the same engine with unprefixed task names).

The per-flow reference engine (:mod:`repro.simulation.reference`) must
agree on every task event, the makespan and the event count; its flow
*finish* times may legitimately straddle one ulp on numerically
symmetric redistribution halves (see the bench scenario's docstring), so
they are compared to within one such spacing instead of exactly.

If an intentional engine change alters the trace, regenerate the golden
with ``python tests/test_golden_traces.py`` and commit the diff.
"""

import dataclasses
import json
import math
from pathlib import Path

from repro.experiments.bench import sparse_multicluster_schedule
from repro.online.live import LiveFluidEngine
from repro.simulation import SimulationResult, canonical_event_trace, simulate
from repro.simulation.reference import simulate_reference

GOLDEN = Path(__file__).parent / "golden" / "sparse_multicluster_events.json"

#: Must match what generated the committed golden file.
SCENARIO_KWARGS = dict(n_clusters=4, chain_len=12)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _schedule():
    return sparse_multicluster_schedule(**SCENARIO_KWARGS)


def test_lazy_engine_replays_golden_exactly():
    res = simulate(_schedule(), collect_flow_traces=True)
    assert canonical_event_trace(res) == _golden()


def test_full_solve_oracle_replays_golden_exactly():
    res = simulate(_schedule(), collect_flow_traces=True, lazy=False)
    assert canonical_event_trace(res) == _golden()


def test_live_engine_replays_golden_exactly():
    sched = _schedule()
    eng = LiveFluidEngine(sched.cluster, collect_flow_traces=True)
    eng.inject("g", sched, 0.0)
    eng.drain()
    # strip the injection's job-id namespace back to batch task names
    task_traces = {
        tr.task.split("/", 1)[1]: dataclasses.replace(
            tr, task=tr.task.split("/", 1)[1])
        for tr in eng.traces.values()
    }
    flow_traces = [
        dataclasses.replace(fl, edge=(fl.edge[0].split("/", 1)[1],
                                      fl.edge[1].split("/", 1)[1]))
        for fl in eng.flow_traces
    ]
    res = SimulationResult(makespan=eng.makespan(),
                           task_traces=task_traces,
                           flow_traces=flow_traces, events=eng.events)
    assert canonical_event_trace(res) == _golden()


def test_reference_engine_matches_golden_to_one_ulp():
    golden = _golden()
    res = simulate_reference(_schedule(), collect_flow_traces=True)
    trace = canonical_event_trace(res)
    assert trace["tasks"] == golden["tasks"]
    assert trace["makespan"] == golden["makespan"]
    assert trace["events"] == golden["events"]
    assert len(trace["flows"]) == len(golden["flows"])
    for got, want in zip(trace["flows"], golden["flows"]):
        assert {k: v for k, v in got.items() if k != "finish"} \
            == {k: v for k, v in want.items() if k != "finish"}
        assert abs(got["finish"] - want["finish"]) \
            <= math.ulp(want["finish"])


def _regenerate() -> None:  # pragma: no cover - manual tool
    sched = _schedule()
    trace = canonical_event_trace(
        simulate(sched, collect_flow_traces=True))
    for kw in ({"lazy": False},):
        assert canonical_event_trace(
            simulate(sched, collect_flow_traces=True, **kw)) == trace, kw
    GOLDEN.write_text(json.dumps(trace, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(trace['tasks'])} tasks, "
          f"{len(trace['flows'])} flows, {trace['events']} events")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
