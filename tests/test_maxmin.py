"""Tests for Max-Min fair sharing: exact cases, optimality properties, and
pure-python vs vectorised implementation equivalence (property-based)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.maxmin import maxmin_rates, maxmin_rates_bundled


class TestExactCases:
    def test_single_flow_gets_link(self):
        assert maxmin_rates([["l"]], {"l": 10.0}) == [10.0]

    def test_two_flows_share_equally(self):
        assert maxmin_rates([["l"], ["l"]], {"l": 10.0}) == [5.0, 5.0]

    def test_classic_three_flow_example(self):
        """Flows: A on l1, B on l1+l2, C on l2; capacities 10 and 4.
        Max-Min: l2 bottleneck at 2 → B=C=2, A takes the rest of l1 = 8."""
        rates = maxmin_rates(
            [["l1"], ["l1", "l2"], ["l2"]],
            {"l1": 10.0, "l2": 4.0},
        )
        assert rates == pytest.approx([8.0, 2.0, 2.0])

    def test_rate_cap_binds(self):
        rates = maxmin_rates([["l"], ["l"]], {"l": 10.0}, rate_caps=[1.0, 100.0])
        assert rates == pytest.approx([1.0, 9.0])

    def test_empty_route_uncapped_is_infinite(self):
        assert maxmin_rates([[]], {}) == [float("inf")]

    def test_empty_route_with_cap(self):
        assert maxmin_rates([[]], {}, rate_caps=[3.0]) == [3.0]

    def test_no_flows(self):
        assert maxmin_rates([], {}) == []

    def test_missing_capacity_raises(self):
        with pytest.raises(KeyError):
            maxmin_rates([["unknown"]], {})

    def test_cap_length_mismatch(self):
        with pytest.raises(ValueError):
            maxmin_rates([["l"]], {"l": 1.0}, rate_caps=[1.0, 2.0])

    def test_bounded_multiport_pattern(self):
        """One sender to 3 receivers: sender NIC shared, each flow 1/3."""
        caps = {"up0": 9.0, "down1": 9.0, "down2": 9.0, "down3": 9.0}
        routes = [["up0", f"down{i}"] for i in (1, 2, 3)]
        assert maxmin_rates(routes, caps) == pytest.approx([3.0, 3.0, 3.0])


def _check_maxmin_properties(routes, capacities, rates):
    """Feasibility + saturation: every flow crosses a saturated link or is
    at its cap (here: uncapped, so saturated link)."""
    usage: dict[str, float] = {}
    for route, rate in zip(routes, rates):
        for link in route:
            usage[link] = usage.get(link, 0.0) + rate
    for link, used in usage.items():
        assert used <= capacities[link] * (1 + 1e-9)
    for route, rate in zip(routes, rates):
        if not route:
            continue
        saturated = any(
            usage[l] >= capacities[l] * (1 - 1e-9) for l in route)
        assert saturated, f"flow at {rate} crosses no saturated link"


@st.composite
def flow_problems(draw):
    n_links = draw(st.integers(1, 6))
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        l: draw(st.floats(0.5, 100.0)) for l in links
    }
    n_flows = draw(st.integers(1, 10))
    routes = [
        draw(st.lists(st.sampled_from(links), min_size=1, max_size=3,
                      unique=True))
        for _ in range(n_flows)
    ]
    return routes, capacities


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(flow_problems())
    def test_feasible_and_saturating(self, problem):
        routes, capacities = problem
        rates = maxmin_rates(routes, capacities)
        _check_maxmin_properties(routes, capacities, rates)

    @settings(max_examples=80, deadline=None)
    @given(flow_problems())
    def test_indexed_matches_reference(self, problem):
        """The vectorised solver over integer link ids (the bundled one)
        must agree with the reference solver."""
        routes, capacities = problem
        link_ids = sorted(capacities)
        index = {l: i for i, l in enumerate(link_ids)}
        cap_arr = np.array([capacities[l] for l in link_ids])
        ref = maxmin_rates(routes, capacities)
        fast = maxmin_rates_bundled(
            [[index[l] for l in r] for r in routes], cap_arr)
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(flow_problems(), st.floats(0.1, 50.0))
    def test_indexed_with_uniform_caps_matches(self, problem, cap):
        routes, capacities = problem
        link_ids = sorted(capacities)
        index = {l: i for i, l in enumerate(link_ids)}
        cap_arr = np.array([capacities[l] for l in link_ids])
        caps = [cap] * len(routes)
        ref = maxmin_rates(routes, capacities, rate_caps=caps)
        fast = maxmin_rates_bundled(
            [[index[l] for l in r] for r in routes], cap_arr,
            np.array(caps))
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(flow_problems())
    def test_single_flow_gets_bottleneck(self, problem):
        routes, capacities = problem
        route = routes[0]
        rates = maxmin_rates([route], capacities)
        assert rates[0] == pytest.approx(min(capacities[l] for l in route))
