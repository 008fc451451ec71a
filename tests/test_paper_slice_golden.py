"""Golden simulations of the paper's own workload: the HCPA slice.

The other goldens pin small synthetic scenarios.  This one pins
``simulate`` on the schedules the paper's evaluation actually produces:
9 Table III shapes (3 layered, 3 irregular, FFT with 4 and 16 points,
Strassen) × samples 0–2 × chti / grillon / grelon, each allocated by
HCPA and list-mapped — 81 schedules.

Per schedule the golden records ``repr(makespan)``, the event count, the
three solver counters (``solves_full``, ``solves_component``,
``solve_rows``) and the sha256 of the canonical event trace, flows
included.  So a change that moves any simulated number, or the amount
of solver work, on the paper's workload fails here.

If an intentional engine change alters a value, regenerate the golden
with ``python tests/test_paper_slice_golden.py`` and commit the diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import Scenario
from repro.registry import platforms, schedulers
from repro.simulation import canonical_event_trace, simulate

GOLDEN = Path(__file__).parent / "golden" / "paper_slice_simulations.json"

CLUSTERS = ("chti", "grillon", "grelon")
# (n_tasks, width, density, regularity[, jump]) of the random shapes
LAYERED = ((25, 0.8, 0.8, 0.2), (50, 0.2, 0.2, 0.8), (50, 0.8, 0.8, 0.8))
IRREGULAR = ((25, 0.5, 0.2, 0.8, 1), (25, 0.8, 0.8, 0.2, 4),
             (100, 0.8, 0.2, 0.2, 1))
FFT_POINTS = (4, 16)
SAMPLES = range(3)


def paper_slice() -> list[Scenario]:
    shapes = [dict(family="layered", n_tasks=n, width=w, density=d,
                   regularity=r) for n, w, d, r in LAYERED]
    shapes += [dict(family="irregular", n_tasks=n, width=w, density=d,
                    regularity=r, jump=j) for n, w, d, r, j in IRREGULAR]
    shapes += [dict(family="fft", k=k) for k in FFT_POINTS]
    shapes.append(dict(family="strassen"))
    return [Scenario(sample=s, **shape) for shape in shapes for s in SAMPLES]


def hcpa_schedules():
    """``(key, schedule)`` for every slice configuration, in slice order."""
    runner = ExperimentRunner(simulate_schedules=False)
    for cluster in (platforms.build(name) for name in CLUSTERS):
        model = cluster.performance_model()
        redist = runner.redist_for(cluster)
        for scenario in paper_slice():
            graph = runner.graph_for(scenario)
            alloc = runner.allocation_for(scenario, cluster, "hcpa")
            schedule = schedulers.build("list", graph, cluster, model,
                                        alloc, redist=redist).run()
            yield f"{scenario.scenario_id}@{cluster.name}", schedule


def fingerprint(result) -> dict:
    trace = json.dumps(canonical_event_trace(result), sort_keys=True)
    return {"makespan": repr(result.makespan),
            "events": result.events,
            "solves_full": result.solves_full,
            "solves_component": result.solves_component,
            "solve_rows": result.solve_rows,
            "trace_sha256": hashlib.sha256(trace.encode()).hexdigest()}


def _run(**kwargs) -> dict[str, dict]:
    return {key: fingerprint(simulate(schedule, collect_flow_traces=True,
                                      **kwargs))
            for key, schedule in hcpa_schedules()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_slice_covers_81_schedules(golden):
    assert len(golden) == 81
    assert len(paper_slice()) * len(CLUSTERS) == 81


def test_simulate_replays_the_paper_slice_exactly(golden):
    got = _run()
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key


def _regenerate() -> None:  # pragma: no cover - manual tool
    got = _run()
    GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
    events = sum(v["events"] for v in got.values())
    print(f"wrote {GOLDEN}: {len(got)} schedules, {events} events")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
