"""Tests for flow objects and the reordering/retransmission model."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.units import MB
from repro.simulator.flows import Flow, FlowComponent, FlowRecord
from repro.simulator.flowstore import FlowStore
from repro.simulator.network import Network
from repro.topology import FatTree
from repro.validation import InvariantChecker
from repro.simulator.reordering import (
    MAX_RETX_FRACTION,
    reordering_retx_fraction_indexed,
)


def make_flow(components=None, size=1000.0, store=None):
    """A standalone flow on its own one-flow store (or on ``store``)."""
    if components is None:
        components = [FlowComponent(0, [0, 1])]
    return Flow(
        flow_id=1, src="a", dst="c",
        size_bytes=size, start_time=0.0, components=list(components),
        store=FlowStore() if store is None else store,
    )


class TestFlowComponent:
    def test_links(self):
        """A network-built component carries its index and its path's link
        ids, access links included, in path order."""
        net = Network(FatTree(p=4))
        topo = net.topology
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        comp = net.component("h_0_0_0", "h_1_0_0", paths, 1)
        assert comp.index == 1
        path = topo.host_path("h_0_0_0", "h_1_0_0", paths[1])
        assert comp.link_ids == net.link_index.index_path(path).tolist()
        assert [net.link_index.links[i] for i in comp.link_ids] == list(zip(path, path[1:]))

    def test_default_weight(self):
        assert FlowComponent(0, [0, 1]).weight == 1.0


class TestFlow:
    def test_initial_state(self):
        flow = make_flow()
        assert flow.remaining_bytes == 1000.0
        assert flow.active
        assert flow.rate_bps == 0.0
        assert not flow.is_elephant

    def test_needs_components(self):
        with pytest.raises(SimulationError):
            Flow(flow_id=1, src="a", dst="b", size_bytes=1.0, start_time=0.0,
                 components=[], store=FlowStore())

    def test_endpoint_mismatch_rejected(self):
        """A network refuses a component built for another host pair, at
        start and at reroute, before it changes any state."""
        net = Network(FatTree(p=4))
        topo = net.topology
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        # Same ToR pair, other hosts: only the access links differ.
        for src, dst in (("h_0_0_1", "h_1_0_0"), ("h_0_0_0", "h_1_0_1")):
            foreign = net.component(src, dst, paths, 0)
            with pytest.raises(SimulationError):
                net.start_flow("h_0_0_0", "h_1_0_0", MB, [foreign])
        assert not net.flows and net.flow_store.size == 0
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", MB, [net.component("h_0_0_0", "h_1_0_0", paths, 0)]
        )
        other = topo.equal_cost_paths("tor_0_0", "tor_2_0")
        for component in (
            net.component("h_0_0_1", "h_1_0_0", paths, 1),
            net.component("h_0_0_0", "h_2_0_0", other, 1),
        ):
            with pytest.raises(SimulationError):
                net.reroute_flow(flow, [component])
        assert flow.components[0].index == 0 and flow.path_switches == 0
        InvariantChecker(net).run_checks()

    def test_rate_aggregates_components(self):
        # A refill writes the components' sum into the flow's row, and
        # rate_bps reads the row.
        store = FlowStore()
        flow = make_flow([
            FlowComponent(0, [0, 1], weight=0.5),
            FlowComponent(1, [2, 3], weight=0.5),
        ], store=store)
        flow.component_rates = [30.0, 20.0]
        store.rate_bps[flow.store_row] = sum(flow.component_rates)
        assert flow.rate_bps == 50.0

    def test_age_and_retx_rate(self):
        flow = make_flow(size=2000.0)
        assert flow.age(5.0) == 5.0
        flow.retransmitted_bytes = 500.0
        assert flow.retx_rate() == 0.25


class TestFlowRecord:
    def test_fct_and_retx(self):
        record = FlowRecord(
            flow_id=1, src="a", dst="b", size_bytes=1000.0,
            start_time=2.0, end_time=12.0, path_switches=3,
            path_revisits=1, retransmitted_bytes=100.0, was_elephant=True,
        )
        assert record.fct == 10.0
        assert record.retx_rate == 0.1
        assert record.path_revisits == 1


class TestReorderingModel:
    """The indexed model the network runs, on two 2-hop paths a-b-c and
    a-d-c: link ids 0 (a-b), 1 (b-c), 2 (a-d) and 3 (d-c)."""

    delays = np.full(4, 0.0001)
    idle = np.zeros(4)
    #: unit capacities, so a link's load is its utilization.
    capacities = np.ones(4)
    paths = [[0, 1], [2, 3]]

    @staticmethod
    def utils(first, second):
        """Per-link utilization: ``first`` on path a-b-c, ``second`` on a-d-c."""
        return np.array([first, first, second, second])

    def fraction(self, rates, utils, paths=None):
        return reordering_retx_fraction_indexed(
            rates, self.paths if paths is None else paths, self.delays, utils, self.capacities
        )

    def test_single_path_never_reorders(self):
        assert self.fraction([100.0], self.utils(0.9, 0.9), paths=[[0, 1]]) == 0.0

    def test_zero_rate_no_reordering(self):
        assert self.fraction([0.0, 0.0], self.utils(0.9, 0.3)) == 0.0

    def test_equal_idle_paths_small_fraction(self):
        # No queueing -> no delay spread -> no reordering.
        assert self.fraction([50.0, 50.0], self.idle) == 0.0

    def test_loaded_paths_reorder(self):
        frac = self.fraction([50.0, 50.0], self.utils(0.9, 0.3))
        assert 0.0 < frac <= MAX_RETX_FRACTION

    def test_fraction_capped(self):
        frac = self.fraction([50.0, 50.0], self.utils(0.99, 0.99))
        assert frac <= MAX_RETX_FRACTION

    def test_component_delay_grows_with_utilization(self):
        # Queueing delay on one path's links grows with their utilization,
        # and with it the delay spread: idle < warm < hot.
        idle = self.fraction([50.0, 50.0], self.idle)
        warm = self.fraction([50.0, 50.0], self.utils(0.3, 0.0))
        hot = self.fraction([50.0, 50.0], self.utils(0.6, 0.0))
        assert idle == 0.0
        assert 0.0 < warm < hot < MAX_RETX_FRACTION

    def test_skewed_split_reorders_less_than_even(self):
        utils = self.utils(0.8, 0.2)
        even = self.fraction([50.0, 50.0], utils)
        skewed = self.fraction([95.0, 5.0], utils)
        assert skewed < even
