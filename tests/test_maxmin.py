"""Tests for weighted max-min fair allocation (progressive filling)."""

import pytest

from repro.common.errors import SimulationError
from repro.simulator.maxmin import maxmin_allocate


def links(*names):
    return tuple((n, n + "'") for n in names)


def utilizations(demands, rates, capacities):
    """Each crossed link's load over its capacity, the rates summed per link."""
    load = {}
    for (route, _), rate in zip(demands, rates):
        for link in route:
            load[link] = load.get(link, 0.0) + rate
    return {link: total / capacities[link] for link, total in load.items()}


class TestBasicAllocation:
    def test_single_flow_gets_full_link(self):
        rates = maxmin_allocate([(links("a"), 1.0)], {("a", "a'"): 100.0})
        assert rates == [100.0]

    def test_two_flows_share_equally(self):
        demands = [(links("a"), 1.0), (links("a"), 1.0)]
        rates = maxmin_allocate(demands, {("a", "a'"): 100.0})
        assert rates == [50.0, 50.0]

    def test_classic_three_flow_example(self):
        """Two links: flow0 uses both, flow1 uses link a, flow2 uses link b.
        With cap(a)=100, cap(b)=1000: flow0 and flow1 split a (50/50),
        flow2 gets the rest of b (950)."""
        cap = {("a", "a'"): 100.0, ("b", "b'"): 1000.0}
        demands = [
            (links("a", "b"), 1.0),
            (links("a"), 1.0),
            (links("b"), 1.0),
        ]
        rates = maxmin_allocate(demands, cap)
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)
        assert rates[2] == pytest.approx(950.0)

    def test_empty_demands(self):
        assert maxmin_allocate([], {("a", "a'"): 10.0}) == []

    def test_bottleneck_progression(self):
        """A flow not constrained by the first bottleneck keeps filling."""
        cap = {("a", "a'"): 30.0, ("b", "b'"): 100.0}
        demands = [(links("a"), 1.0), (links("a"), 1.0), (links("a", "b"), 1.0), (links("b"), 1.0)]
        rates = maxmin_allocate(demands, cap)
        assert rates[0] == rates[1] == rates[2] == pytest.approx(10.0)
        assert rates[3] == pytest.approx(90.0)


class TestWeights:
    def test_weighted_split(self):
        demands = [(links("a"), 3.0), (links("a"), 1.0)]
        rates = maxmin_allocate(demands, {("a", "a'"): 100.0})
        assert rates == [pytest.approx(75.0), pytest.approx(25.0)]

    def test_weights_only_matter_relatively(self):
        cap = {("a", "a'"): 100.0}
        small = maxmin_allocate([(links("a"), 0.2), (links("a"), 0.1)], cap)
        big = maxmin_allocate([(links("a"), 2.0), (links("a"), 1.0)], cap)
        assert small == pytest.approx(big)


class TestInvariantsAndErrors:
    def test_capacity_never_exceeded(self):
        cap = {("a", "a'"): 50.0, ("b", "b'"): 70.0, ("c", "c'"): 10.0}
        demands = [
            (links("a", "b"), 1.0),
            (links("b", "c"), 1.0),
            (links("a", "c"), 2.0),
            (links("b"), 1.0),
        ]
        rates = maxmin_allocate(demands, cap)
        utils = utilizations(demands, rates, cap)
        assert all(u <= 1.0 + 1e-9 for u in utils.values())

    def test_all_rates_positive(self):
        cap = {("a", "a'"): 50.0, ("b", "b'"): 1.0}
        demands = [(links("a", "b"), 1.0)] * 5 + [(links("a"), 1.0)] * 3
        rates = maxmin_allocate(demands, cap)
        assert all(r > 0 for r in rates)

    def test_empty_route_rejected(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([((), 1.0)], {})

    def test_unknown_link_rejected(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([(links("zz"), 1.0)], {("a", "a'"): 5.0})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([(links("a"), 0.0)], {("a", "a'"): 5.0})

    def test_zero_capacity_in_use_rejected(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([(links("a"), 1.0)], {("a", "a'"): 0.0})

    def test_bottleneck_links_fully_used(self):
        """Max-min property: every flow crosses at least one saturated link."""
        cap = {("a", "a'"): 40.0, ("b", "b'"): 90.0}
        demands = [(links("a"), 1.0), (links("a", "b"), 1.0), (links("b"), 1.0)]
        rates = maxmin_allocate(demands, cap)
        utils = utilizations(demands, rates, cap)
        for (route, _), rate in zip(demands, rates):
            assert any(utils[link] >= 1.0 - 1e-9 for link in route)

