"""Component engine vs full-solve oracle on random draws.

This module once covered dynamic component splits.  Splits have been
removed, so the default engine *is* the merge-only engine; the random
draw equivalence stays under its original name: the default lazy engine
must equal the full-solve oracle (``lazy=False``) to the last bit.  The
pinned irregular-21 example guards same-instant completions, which must
be delivered in ascending flow id whatever order pair-row resurrection
leaves the component's rows in.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import Scenario
from repro.platforms.grid5000 import CHTI, GRELON
from repro.scheduling.allocation import hcpa_allocation
from repro.scheduling.mapping import ListScheduler
from repro.simulation.simulator import FluidSimulator


def _schedule_for_scenario(scenario: Scenario, cluster):
    graph = scenario.build()
    model = cluster.performance_model()
    alloc = hcpa_allocation(graph, model, cluster.num_procs).allocation
    return ListScheduler(graph, cluster, model, alloc).run()


def assert_byte_identical(a, b):
    assert a.events == b.events
    assert a.makespan == b.makespan
    assert set(a.task_traces) == set(b.task_traces)
    for name, tr in a.task_traces.items():
        other = b.task_traces[name]
        assert tr.procs == other.procs
        assert tr.start == other.start
        assert tr.finish == other.finish
    assert len(a.flow_traces) == len(b.flow_traces)
    for fa, fb in zip(a.flow_traces, b.flow_traces):
        assert (fa.edge, fa.src, fa.dst, fa.data_bytes,
                fa.release, fa.finish) == \
               (fb.edge, fb.src, fb.dst, fb.data_bytes,
                fb.release, fb.finish)


class TestThreeWayEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(["layered", "irregular"]),
        n_tasks=st.integers(8, 22),
        width=st.sampled_from([0.2, 0.5, 0.8]),
        density=st.sampled_from([0.2, 0.8]),
        regularity=st.sampled_from([0.2, 0.8]),
        jump=st.sampled_from([1, 2]),
        sample=st.integers(0, 3),
        hierarchical=st.booleans(),
    )
    # regression: same-instant completions used to be delivered in
    # component row order, which pair-row resurrection reshuffles
    @example(family="irregular", n_tasks=21, width=0.2, density=0.2,
             regularity=0.8, jump=2, sample=0, hierarchical=False)
    def test_split_merge_only_full_agree_on_random_draws(
            self, family, n_tasks, width, density, regularity, jump,
            sample, hierarchical):
        """Merge-only lazy (the default) ≡ full oracle, to the last bit."""
        scenario = Scenario(family=family, n_tasks=n_tasks, width=width,
                            density=density, regularity=regularity,
                            jump=jump, sample=sample)
        cluster = GRELON if hierarchical else CHTI
        schedule = _schedule_for_scenario(scenario, cluster)
        merge_only = FluidSimulator(schedule,
                                    collect_flow_traces=True).run()
        full = FluidSimulator(schedule, lazy=False,
                              collect_flow_traces=True).run()
        assert_byte_identical(merge_only, full)
        assert merge_only.solves_full == full.solves_full
