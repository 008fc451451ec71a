"""repro — Redistribution Aware Two-Step Scheduling for Mixed-Parallel Applications.

A full reproduction of Hunold, Rauber & Suter, *"Redistribution Aware
Two-Step Scheduling for Mixed-Parallel Applications"* (IEEE Cluster 2008):

* the application model (DAGs of moldable Amdahl tasks, 1-D block
  redistribution) — :mod:`repro.dag`, :mod:`repro.model`,
  :mod:`repro.redistribution`;
* the platform model (Grid'5000 clusters, bounded multi-port network,
  Max-Min fair sharing) — :mod:`repro.platforms`, :mod:`repro.network`;
* the two-step baselines (CPA / MCPA / HCPA allocation + list-scheduling
  mapping) — :mod:`repro.scheduling`;
* the paper's contribution, RATS (delta and time-cost redistribution-aware
  mapping) — :mod:`repro.core`;
* the SimGrid-like fluid simulator used for evaluation —
  :mod:`repro.simulation`;
* the experiment harness regenerating every table and figure —
  :mod:`repro.experiments`;
* the open-system online mode (job streams, admission control, residual
  scheduling, live injection, per-job JCT/slowdown/SLO metrics) —
  :mod:`repro.online`, fronted by ``repro serve`` and
  ``repro replay-stream``.

Quickstart
----------
Declare a comparison with the fluent :class:`Experiment` builder — every
component (platform, DAG family, allocator, mapping strategy) is resolved
by name through the :mod:`repro.registry` registries:

>>> from repro import Experiment
>>> result = (Experiment()
...           .on("grillon")
...           .workload(family="strassen")
...           .compare("hcpa", "rats-delta", "rats-timecost")
...           .repeats(3)
...           .run())
>>> len(result)
9
>>> result.best_algorithm() in ("hcpa", "rats-delta", "rats-timecost")
True

Add ``.parallel(8)`` to execute the matrix on a persistent process pool,
``.store("results.jsonl")`` to make the campaign resumable (re-running
skips everything already computed), ``.stream()`` to consume results as
they finish, and ``python -m repro list`` to see every registered
component.  ``python -m repro run spec.toml --store results.jsonl``
drives the same engine from a declarative spec file.

Extending
---------
Register your own components — no ``repro`` module needs editing:

>>> from repro import register_allocator, register_mapping_strategy
>>> from repro import register_dag_family, register_platform

and they become available to :class:`Experiment`, the experiment runner
and the CLI under the name you registered.  See ``docs/api.md``.

One-off schedules keep the direct API:

>>> from repro import (DagShape, random_layered_dag, GRILLON, RATSParams,
...                    rats_schedule, simulate, spawn_rng)
>>> graph = random_layered_dag(DagShape(n_tasks=25), spawn_rng("demo"))
>>> schedule = rats_schedule(graph, GRILLON, RATSParams("timecost"))
>>> bool(simulate(schedule).makespan > 0)
True
"""

from repro.core import (
    NAIVE_DELTA,
    NAIVE_TIMECOST,
    PAPER_TUNED_PARAMS,
    RATSParams,
    RATSScheduler,
    rats_schedule,
    tuned_params,
)
from repro.dag import (
    ComputeCostConfig,
    DagShape,
    Task,
    TaskGraph,
    annotate_costs,
    fft_dag,
    random_irregular_dag,
    random_layered_dag,
    strassen_dag,
)
from repro.model import AmdahlModel
from repro.platforms import CHTI, GRELON, GRILLON, Cluster, get_cluster
from repro.redistribution import (
    RedistributionCost,
    align_receivers,
    communication_matrix,
    redistribution_flows,
)
from repro.scheduling import (
    ListScheduler,
    Schedule,
    cpa_allocation,
    hcpa_allocation,
    mcpa_allocation,
)
from repro.platforms.multicluster import MultiClusterPlatform
from repro.scheduling.multicluster import (
    MultiClusterListScheduler,
    MultiClusterRATSScheduler,
    reference_allocation,
)
from repro.simulation import FluidSimulator, simulate
from repro.utils import scenario_seed, spawn_rng
from repro.viz import ascii_curves, ascii_gantt, ascii_surface
# NOTE: the registry *instances* (allocators, mapping_strategies,
# dag_families, platforms) stay namespaced under repro.registry — importing
# `platforms` here would shadow the repro.platforms subpackage attribute.
from repro import registry
from repro.registry import (
    Registry,
    UnknownComponentError,
    register_allocator,
    register_dag_family,
    register_mapping_strategy,
    register_platform,
    register_scheduler,
)
from repro.experiments import (
    AlgorithmSpec,
    CampaignPlan,
    Experiment,
    ExperimentResult,
    ExperimentRunner,
    JsonlStore,
    MemoryStore,
    ResultStore,
    RunResult,
    Scenario,
    SqliteStore,
    Stage,
    baseline_spec,
    merge_stores,
    rats_spec,
    run_key,
)
from repro.online import (
    BurstStream,
    JobArrival,
    JobRecord,
    JobStream,
    OnlineMetrics,
    OnlineResult,
    OnlineSimulator,
    PoissonStream,
    ReplayStream,
    stream_from_spec,
)

__version__ = "1.13.0"

__all__ = [
    "__version__",
    # registries & extension API
    "registry",
    "Registry",
    "UnknownComponentError",
    "register_allocator",
    "register_mapping_strategy",
    "register_dag_family",
    "register_platform",
    "register_scheduler",
    # experiment harness
    "Experiment",
    "ExperimentResult",
    "ExperimentRunner",
    "AlgorithmSpec",
    "RunResult",
    "Scenario",
    "baseline_spec",
    "rats_spec",
    "ResultStore",
    "MemoryStore",
    "JsonlStore",
    "SqliteStore",
    "merge_stores",
    "run_key",
    "Stage",
    "CampaignPlan",
    # core (RATS)
    "RATSParams",
    "RATSScheduler",
    "rats_schedule",
    "NAIVE_DELTA",
    "NAIVE_TIMECOST",
    "PAPER_TUNED_PARAMS",
    "tuned_params",
    # application model
    "Task",
    "TaskGraph",
    "DagShape",
    "ComputeCostConfig",
    "annotate_costs",
    "random_layered_dag",
    "random_irregular_dag",
    "fft_dag",
    "strassen_dag",
    "AmdahlModel",
    # platform
    "Cluster",
    "CHTI",
    "GRILLON",
    "GRELON",
    "get_cluster",
    "MultiClusterPlatform",
    "MultiClusterListScheduler",
    "MultiClusterRATSScheduler",
    "reference_allocation",
    # redistribution
    "communication_matrix",
    "redistribution_flows",
    "align_receivers",
    "RedistributionCost",
    # scheduling
    "Schedule",
    "ListScheduler",
    "cpa_allocation",
    "hcpa_allocation",
    "mcpa_allocation",
    # simulation
    "FluidSimulator",
    "simulate",
    # online mode
    "JobArrival",
    "JobStream",
    "PoissonStream",
    "BurstStream",
    "ReplayStream",
    "stream_from_spec",
    "OnlineSimulator",
    "OnlineResult",
    "JobRecord",
    "OnlineMetrics",
    # utils & viz
    "scenario_seed",
    "spawn_rng",
    "ascii_gantt",
    "ascii_curves",
    "ascii_surface",
]
