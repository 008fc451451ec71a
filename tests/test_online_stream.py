"""Deterministic workload sources for the online mode."""

import math

import pytest

from repro.experiments.runner import AlgorithmSpec
from repro.experiments.scenarios import Scenario
from repro.online.stream import (
    BurstStream,
    JobArrival,
    JobStream,
    PoissonStream,
    ReplayStream,
    stream_from_spec,
)

SCEN = Scenario(family="strassen", sample=0, k=2)
SPEC = AlgorithmSpec(label="hcpa")


def _arrivals(stream) -> list[JobArrival]:
    return list(stream)


class TestPoissonStream:
    def test_replay_is_bit_identical(self):
        a = _arrivals(PoissonStream(rate=2.0, n_jobs=50, scenarios=[SCEN],
                                    spec=SPEC, seed=3))
        b = _arrivals(PoissonStream(rate=2.0, n_jobs=50, scenarios=[SCEN],
                                    spec=SPEC, seed=3))
        assert a == b
        # and iterating the *same* object twice is also identical
        s = PoissonStream(rate=2.0, n_jobs=50, scenarios=[SCEN], spec=SPEC,
                          seed=3)
        assert _arrivals(s) == _arrivals(s) == a

    def test_seed_changes_the_arrivals(self):
        a = _arrivals(PoissonStream(rate=2.0, n_jobs=20, scenarios=[SCEN],
                                    spec=SPEC, seed=0))
        b = _arrivals(PoissonStream(rate=2.0, n_jobs=20, scenarios=[SCEN],
                                    spec=SPEC, seed=1))
        assert [x.arrival_time for x in a] != [x.arrival_time for x in b]

    def test_sorted_count_and_mean_rate(self):
        arr = _arrivals(PoissonStream(rate=4.0, n_jobs=400,
                                      scenarios=[SCEN], spec=SPEC, seed=7))
        times = [x.arrival_time for x in arr]
        assert len(arr) == 400
        assert times == sorted(times)
        assert all(t > 0 for t in times)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1 / 4.0, rel=0.2)

    def test_round_robin_scenarios_and_specs(self):
        scen2 = Scenario(family="strassen", sample=0, k=3)
        spec2 = AlgorithmSpec(label="cpa", allocator="cpa")
        arr = _arrivals(PoissonStream(rate=1.0, n_jobs=4,
                                      scenarios=[SCEN, scen2],
                                      spec=[SPEC, spec2], seed=0))
        assert [a.scenario for a in arr] == [SCEN, scen2, SCEN, scen2]
        assert [a.spec.label for a in arr] == ["hcpa", "cpa", "hcpa", "cpa"]

    def test_is_a_jobstream(self):
        s = PoissonStream(rate=1.0, n_jobs=1, scenarios=[SCEN], spec=SPEC)
        assert isinstance(s, JobStream)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            PoissonStream(rate=0.0, n_jobs=1, scenarios=[SCEN], spec=SPEC)
        with pytest.raises(ValueError, match="scenario"):
            PoissonStream(rate=1.0, n_jobs=1, scenarios=[], spec=SPEC)
        with pytest.raises(ValueError, match="n_jobs"):
            PoissonStream(rate=1.0, n_jobs=-1, scenarios=[SCEN], spec=SPEC)


class TestBurstStream:
    def test_replay_is_bit_identical(self):
        mk = lambda: BurstStream(rate_on=5.0, n_jobs=60, scenarios=[SCEN],
                                 spec=SPEC, mean_on=2.0, mean_off=3.0,
                                 seed=9)
        assert _arrivals(mk()) == _arrivals(mk())

    def test_sorted_and_counted(self):
        arr = _arrivals(BurstStream(rate_on=5.0, n_jobs=80,
                                    scenarios=[SCEN], spec=SPEC,
                                    mean_on=1.0, mean_off=4.0, seed=2))
        times = [x.arrival_time for x in arr]
        assert len(arr) == 80
        assert times == sorted(times)

    def test_off_phases_are_silent_by_default(self):
        """With rate_off=0 the inter-arrival gaps show true lulls: the
        mean gap is much larger than the on-phase 1/rate_on."""
        arr = _arrivals(BurstStream(rate_on=50.0, n_jobs=200,
                                    scenarios=[SCEN], spec=SPEC,
                                    mean_on=1.0, mean_off=9.0, seed=5))
        times = [x.arrival_time for x in arr]
        span = times[-1] - times[0]
        # on 10% duty cycle the effective rate is ~5/s, not 50/s
        assert span / len(times) > 3 * (1 / 50.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_on"):
            BurstStream(rate_on=0.0, n_jobs=1, scenarios=[SCEN], spec=SPEC)
        with pytest.raises(ValueError, match="rate_off"):
            BurstStream(rate_on=1.0, rate_off=-1.0, n_jobs=1,
                        scenarios=[SCEN], spec=SPEC)
        with pytest.raises(ValueError, match="durations"):
            BurstStream(rate_on=1.0, mean_on=0.0, n_jobs=1,
                        scenarios=[SCEN], spec=SPEC)


class TestReplayStream:
    def test_preserves_arrivals(self):
        arr = [JobArrival("a", 0.0, SCEN, SPEC),
               JobArrival("b", 1.5, SCEN, SPEC)]
        s = ReplayStream(arr)
        assert list(s) == arr
        assert s.n_jobs == 2

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            ReplayStream([JobArrival("a", 2.0, SCEN, SPEC),
                          JobArrival("b", 1.0, SCEN, SPEC)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReplayStream([JobArrival("a", 0.0, SCEN, SPEC),
                          JobArrival("a", 1.0, SCEN, SPEC)])

    def test_negative_arrival_rejected_at_the_source(self):
        with pytest.raises(ValueError, match="negative"):
            JobArrival("a", -0.1, SCEN, SPEC)


class TestStreamFromSpec:
    def test_poisson_defaults(self):
        s = stream_from_spec({"kind": "poisson", "jobs": 3, "seed": 4})
        assert isinstance(s, PoissonStream)
        arr = list(s)
        assert len(arr) == 3
        assert arr[0].scenario.family == "strassen"
        assert arr[0].spec.label == "hcpa"

    def test_workloads_and_algorithms_round_robin(self):
        s = stream_from_spec({
            "kind": "poisson", "jobs": 4, "rate": 2.0,
            "workloads": [{"family": "strassen", "k": 2},
                          {"family": "strassen", "k": 3}],
            "algorithms": ["hcpa", "rats-delta"]})
        arr = list(s)
        assert [a.scenario.k for a in arr] == [2, 3, 2, 3]
        assert [a.spec.label for a in arr] \
            == ["hcpa", "rats-delta", "hcpa", "rats-delta"]

    def test_samples_multiply_scenarios(self):
        s = stream_from_spec({"jobs": 4, "samples": 2,
                              "workload": {"family": "strassen", "k": 2}})
        assert [a.scenario.sample for a in list(s)] == [0, 1, 0, 1]

    def test_burst_kind(self):
        s = stream_from_spec({"kind": "burst", "jobs": 5, "rate_on": 3.0,
                              "mean_off": 2.0})
        assert isinstance(s, BurstStream)
        assert s.rate_on == 3.0 and s.mean_off == 2.0

    def test_replay_kind(self):
        s = stream_from_spec({"kind": "replay", "arrivals": [
            {"t": 0.0, "workload": {"family": "strassen", "k": 2}},
            {"t": 2.0, "workload": {"family": "strassen", "k": 2},
             "algorithm": "rats-delta", "job_id": "second"}]})
        arr = list(s)
        assert isinstance(s, ReplayStream)
        assert arr[0].job_id == "replay-00000"
        assert arr[1].job_id == "second"
        assert arr[1].spec.label == "rats-delta"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown stream spec key"):
            stream_from_spec({"kind": "poisson", "ratee": 1.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stream kind"):
            stream_from_spec({"kind": "fractal"})

    def test_workload_extras_preserved(self):
        s = stream_from_spec({"jobs": 1, "workload": {
            "family": "strassen", "k": 2, "custom_knob": 7}})
        assert dict(list(s)[0].scenario.extras)["custom_knob"] == 7


# every rate and phase-duration parameter of the generated streams
STREAM_PARAMS = [("poisson", "rate"), ("burst", "rate_on"),
                 ("burst", "rate_off"), ("burst", "mean_on"),
                 ("burst", "mean_off")]
NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf],
                                     ids=["nan", "inf"])


@NON_FINITE
class TestNonFiniteInputsRejected:
    """A NaN passes ``<= 0`` checks, yet would hang BurstStream's
    generator, yield NaN Poisson arrivals or crash the engine later, so
    every time, rate and phase mean is rejected up front."""

    @pytest.mark.parametrize("kind, param", STREAM_PARAMS)
    def test_constructors(self, kind, param, bad):
        cls = PoissonStream if kind == "poisson" else BurstStream
        kwargs = {"rate": 1.0} if kind == "poisson" else {"rate_on": 1.0}
        kwargs[param] = bad
        with pytest.raises(ValueError, match=param):
            cls(n_jobs=3, scenarios=[SCEN], spec=SPEC, **kwargs)

    @pytest.mark.parametrize("kind, param", STREAM_PARAMS)
    def test_stream_specs(self, kind, param, bad):
        with pytest.raises(ValueError, match=param):
            stream_from_spec({"kind": kind, "jobs": 3, param: bad,
                              "workload": {"family": "strassen", "k": 2}})

    def test_arrival_time(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            JobArrival("a", bad, SCEN, SPEC)

    def test_replay_spec_time(self, bad):
        workload = {"family": "strassen", "k": 2}
        with pytest.raises(ValueError, match="non-finite"):
            stream_from_spec({"kind": "replay", "arrivals": [
                {"t": 1.0, "workload": workload},
                {"t": bad, "workload": workload},
                {"t": 0.5, "workload": workload}]})
