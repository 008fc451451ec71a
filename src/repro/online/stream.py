"""Workload sources for the online mode: deterministic job streams.

A *job* is one DAG-application instance — a
:class:`~repro.experiments.scenarios.Scenario` plus the
:class:`~repro.experiments.runner.AlgorithmSpec` that should schedule it —
stamped with an arrival time.  A :class:`JobStream` yields
:class:`JobArrival` records in non-decreasing arrival order, and every
built-in stream is a pure function of its parameters and seed
(:func:`repro.utils.rng.spawn_rng`), so replaying a stream twice produces
bit-identical arrivals — the property the determinism tests and the
``repro replay-stream`` CI check assert.

Three generators ship:

* :class:`PoissonStream` — exponential inter-arrivals at a constant rate;
* :class:`BurstStream` — an MMPP-style on/off process: exponential on and
  off phase durations, each phase with its own Poisson rate (``rate_off
  = 0`` gives true silences), the classic bursty-traffic model;
* :class:`ReplayStream` — an explicit arrival list (a recorded trace, a
  service transcript, a hand-written test fixture).

:func:`stream_from_spec` builds any of them from a JSON-able dict — the
format ``repro replay-stream`` reads from disk and ``repro serve`` can be
pointed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.experiments.runner import AlgorithmSpec
from repro.experiments.scenarios import Scenario

__all__ = [
    "JobArrival",
    "JobStream",
    "PoissonStream",
    "BurstStream",
    "ReplayStream",
    "stream_from_spec",
]


@dataclass(frozen=True)
class JobArrival:
    """One job instance entering the system at ``arrival_time``."""

    job_id: str
    arrival_time: float
    scenario: Scenario
    spec: AlgorithmSpec

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time):
            raise ValueError(
                f"job {self.job_id!r}: non-finite arrival time "
                f"{self.arrival_time}")
        if self.arrival_time < 0:
            raise ValueError(
                f"job {self.job_id!r}: negative arrival time "
                f"{self.arrival_time}")


@runtime_checkable
class JobStream(Protocol):
    """What the online engine consumes: an iterable of arrivals.

    Iterating must be repeatable (two iterations yield identical
    arrivals) and arrivals must come in non-decreasing ``arrival_time``
    order — both properties hold for every stream in this module.
    """

    def __iter__(self) -> Iterator[JobArrival]: ...


def _check_param(name: str, value: float, *, zero_ok: bool = False) -> float:
    """``value`` as a float, which must be finite and > 0 (>= 0 if
    ``zero_ok``): a NaN passes plain ``<= 0`` checks and would spin the
    arrival generators forever."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0 or (value == 0 and not zero_ok):
        raise ValueError(
            f"{name} must be {'>= 0' if zero_ok else '> 0'}, got {value}")
    return value


def _cycle_jobs(index: int, scenarios: Sequence[Scenario],
                specs: Sequence[AlgorithmSpec]) -> tuple[Scenario,
                                                         AlgorithmSpec]:
    return (scenarios[index % len(scenarios)],
            specs[index % len(specs)])


class _GeneratedStream:
    """Shared plumbing of the seeded generators (Poisson / burst)."""

    kind = "stream"

    def __init__(self, *, n_jobs: int, scenarios: Sequence[Scenario],
                 spec: AlgorithmSpec | Sequence[AlgorithmSpec],
                 seed: object = 0) -> None:
        if n_jobs < 0:
            raise ValueError("n_jobs must be >= 0")
        scenarios = list(scenarios)
        if n_jobs and not scenarios:
            raise ValueError("a non-empty stream needs at least one scenario")
        specs = ([spec] if isinstance(spec, AlgorithmSpec) else list(spec))
        if n_jobs and not specs:
            raise ValueError("a non-empty stream needs at least one spec")
        self.n_jobs = n_jobs
        self.scenarios = scenarios
        self.specs = specs
        self.seed = seed

    def _rng(self):
        from repro.utils.rng import spawn_rng

        return spawn_rng("online-stream", self.kind, self.seed)

    def _arrival_times(self) -> Iterator[float]:  # pragma: no cover
        raise NotImplementedError

    def __iter__(self) -> Iterator[JobArrival]:
        for i, t in enumerate(self._arrival_times()):
            scenario, spec = _cycle_jobs(i, self.scenarios, self.specs)
            yield JobArrival(job_id=f"{self.kind}-{i:05d}",
                             arrival_time=float(t),
                             scenario=scenario, spec=spec)


class PoissonStream(_GeneratedStream):
    """``n_jobs`` arrivals with exponential inter-arrival times.

    ``rate`` is the arrival intensity λ in jobs per simulated second.
    Scenarios (and specs, if several are given) are assigned round-robin,
    so a heterogeneous job mix is one list away.
    """

    kind = "poisson"

    def __init__(self, *, rate: float, n_jobs: int,
                 scenarios: Sequence[Scenario],
                 spec: AlgorithmSpec | Sequence[AlgorithmSpec],
                 seed: object = 0) -> None:
        rate = _check_param("rate", rate)
        super().__init__(n_jobs=n_jobs, scenarios=scenarios, spec=spec,
                         seed=seed)
        self.rate = rate

    def _arrival_times(self) -> Iterator[float]:
        rng = self._rng()
        t = 0.0
        for _ in range(self.n_jobs):
            t += rng.exponential(1.0 / self.rate)
            yield t


class BurstStream(_GeneratedStream):
    """MMPP-style on/off arrivals: bursts at ``rate_on``, lulls at
    ``rate_off``.

    The modulating chain alternates *on* and *off* phases with
    exponential durations (``mean_on`` / ``mean_off`` seconds); within a
    phase arrivals are Poisson at the phase's rate.  Phase switches
    exploit the memorylessness of the exponential: a candidate arrival
    that would cross the phase boundary is discarded and redrawn at the
    boundary under the new rate — the textbook MMPP construction.
    ``rate_off = 0`` (the default) yields strict silences between bursts.
    """

    kind = "burst"

    def __init__(self, *, rate_on: float, n_jobs: int,
                 scenarios: Sequence[Scenario],
                 spec: AlgorithmSpec | Sequence[AlgorithmSpec],
                 rate_off: float = 0.0, mean_on: float = 1.0,
                 mean_off: float = 1.0, seed: object = 0) -> None:
        rate_on = _check_param("rate_on", rate_on)
        rate_off = _check_param("rate_off", rate_off, zero_ok=True)
        mean_on = _check_param("phase durations (mean_on)", mean_on)
        mean_off = _check_param("phase durations (mean_off)", mean_off)
        super().__init__(n_jobs=n_jobs, scenarios=scenarios, spec=spec,
                         seed=seed)
        self.rate_on = rate_on
        self.rate_off = rate_off
        self.mean_on = mean_on
        self.mean_off = mean_off

    def _arrival_times(self) -> Iterator[float]:
        rng = self._rng()
        t = 0.0
        on = True
        phase_end = rng.exponential(self.mean_on)
        emitted = 0
        while emitted < self.n_jobs:
            rate = self.rate_on if on else self.rate_off
            if rate > 0:
                candidate = t + rng.exponential(1.0 / rate)
            else:
                candidate = float("inf")
            if candidate <= phase_end:
                t = candidate
                emitted += 1
                yield t
            else:
                t = phase_end
                on = not on
                phase_end = t + rng.exponential(
                    self.mean_on if on else self.mean_off)


class ReplayStream:
    """An explicit, pre-built arrival list (trace replay).

    Arrivals must already be in non-decreasing time order — a recorded
    trace always is, and requiring it keeps the engine's single forward
    pass honest.
    """

    kind = "replay"

    def __init__(self, arrivals: Iterable[JobArrival]) -> None:
        self.arrivals = list(arrivals)
        seen: set[str] = set()
        for prev, cur in zip(self.arrivals, self.arrivals[1:]):
            if cur.arrival_time < prev.arrival_time:
                raise ValueError(
                    f"arrivals out of order: {cur.job_id!r} at "
                    f"{cur.arrival_time} after {prev.job_id!r} at "
                    f"{prev.arrival_time}")
        for a in self.arrivals:
            if a.job_id in seen:
                raise ValueError(f"duplicate job id {a.job_id!r}")
            seen.add(a.job_id)

    @property
    def n_jobs(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[JobArrival]:
        return iter(self.arrivals)


# --------------------------------------------------------------------- #
# spec-file construction (repro replay-stream / repro serve)
# --------------------------------------------------------------------- #
def _scenario_from_workload(workload: Any, sample: int = 0) -> Scenario:
    """One :class:`Scenario` from a ``repro run``-style workload dict."""
    from dataclasses import fields

    if isinstance(workload, Scenario):
        return workload
    if not isinstance(workload, dict):
        raise ValueError(f"workload must be a dict, got {workload!r}")
    workload = dict(workload)
    family = workload.pop("family", None)
    if family is None:
        raise ValueError("workload needs a 'family' key")
    sample = int(workload.pop("sample", sample))
    shape_fields = {f.name for f in fields(Scenario)} - {"family", "sample",
                                                         "extras"}
    shape = {k: v for k, v in workload.items() if k in shape_fields}
    extras = tuple(sorted((k, v) for k, v in workload.items()
                          if k not in shape_fields))
    return Scenario(family=family, sample=sample, extras=extras, **shape)


def _spec_from_algorithm(algorithm: Any) -> AlgorithmSpec:
    from repro.experiments.experiment import as_algorithm_spec

    return as_algorithm_spec(algorithm)


_STREAM_KEYS = frozenset((
    "kind", "rate", "rate_on", "rate_off", "mean_on", "mean_off", "jobs",
    "seed", "samples", "workloads", "workload", "algorithm", "algorithms",
    "arrivals",
))


def stream_from_spec(spec: dict) -> JobStream:
    """Build a stream from a JSON-able dict (the on-disk stream format).

    Common keys: ``kind`` (``"poisson"`` / ``"burst"`` / ``"replay"``),
    ``workloads`` (list of ``repro run``-style workload dicts, assigned
    round-robin; ``workload`` accepts a single one), ``algorithm`` (or a
    round-robin ``algorithms`` list), ``samples`` (distinct DAG samples
    drawn per workload, default 1).  Generated kinds add ``jobs``,
    ``seed`` and their rate parameters; ``replay`` instead takes
    ``arrivals``: a list of ``{"t": …, "workload": …, "algorithm": …}``
    records.
    """
    if not isinstance(spec, dict):
        raise ValueError("stream spec must be a dict")
    unknown = sorted(set(spec) - _STREAM_KEYS)
    if unknown:
        raise ValueError(f"unknown stream spec key(s) {unknown}; "
                         f"allowed: {sorted(_STREAM_KEYS)}")
    kind = spec.get("kind", "poisson")

    if kind == "replay":
        arrivals = []
        for i, row in enumerate(spec.get("arrivals", ())):
            arrivals.append(JobArrival(
                job_id=str(row.get("job_id", f"replay-{i:05d}")),
                arrival_time=float(row["t"]),
                scenario=_scenario_from_workload(
                    row["workload"], sample=int(row.get("sample", 0))),
                spec=_spec_from_algorithm(row.get("algorithm", "hcpa"))))
        return ReplayStream(arrivals)

    workloads = spec.get("workloads")
    if workloads is None:
        workloads = [spec.get("workload", {"family": "strassen"})]
    samples = int(spec.get("samples", 1))
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scenarios = [_scenario_from_workload(w, sample=s)
                 for s in range(samples) for w in workloads]
    algorithms = spec.get("algorithms")
    if algorithms is None:
        algorithms = [spec.get("algorithm", "hcpa")]
    specs = [_spec_from_algorithm(a) for a in algorithms]
    common = dict(n_jobs=int(spec.get("jobs", 100)), scenarios=scenarios,
                  spec=specs, seed=spec.get("seed", 0))

    if kind == "poisson":
        return PoissonStream(rate=float(spec.get("rate", 1.0)), **common)
    if kind == "burst":
        return BurstStream(rate_on=float(spec.get("rate_on", 1.0)),
                           rate_off=float(spec.get("rate_off", 0.0)),
                           mean_on=float(spec.get("mean_on", 1.0)),
                           mean_off=float(spec.get("mean_off", 1.0)),
                           **common)
    raise ValueError(f"unknown stream kind {kind!r}; "
                     "expected poisson, burst or replay")
