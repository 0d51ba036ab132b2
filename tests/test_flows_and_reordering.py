"""Tests for flow objects and the reordering/retransmission model."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.simulator.flows import Flow, FlowComponent, FlowRecord
from repro.simulator.reordering import (
    MAX_RETX_FRACTION,
    reordering_retx_fraction_indexed,
)


def make_flow(components=None, size=1000.0):
    if components is None:
        components = [FlowComponent(("a", "b", "c"))]
    return Flow(
        flow_id=1, src=components[0].path[0], dst=components[0].path[-1],
        size_bytes=size, start_time=0.0, components=list(components),
    )


class TestFlowComponent:
    def test_links(self):
        comp = FlowComponent(("a", "b", "c"))
        assert comp.links() == (("a", "b"), ("b", "c"))

    def test_default_weight(self):
        assert FlowComponent(("a", "b")).weight == 1.0


class TestFlow:
    def test_initial_state(self):
        flow = make_flow()
        assert flow.remaining_bytes == 1000.0
        assert flow.active
        assert flow.rate_bps == 0.0
        assert not flow.is_elephant

    def test_needs_components(self):
        with pytest.raises(SimulationError):
            Flow(flow_id=1, src="a", dst="b", size_bytes=1.0, start_time=0.0, components=[])

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            Flow(
                flow_id=1, src="x", dst="c", size_bytes=1.0, start_time=0.0,
                components=[FlowComponent(("a", "b", "c"))],
            )

    def test_rate_aggregates_components(self):
        flow = make_flow([
            FlowComponent(("a", "b", "c"), weight=0.5),
            FlowComponent(("a", "d", "c"), weight=0.5),
        ])
        flow.component_rates = [30.0, 20.0]
        assert flow.rate_bps == 50.0

    def test_switch_path_single_component_only(self):
        flow = make_flow()
        assert flow.switch_path() == ("a", "b", "c")
        striped = make_flow([
            FlowComponent(("a", "b", "c")),
            FlowComponent(("a", "d", "c")),
        ])
        with pytest.raises(ValueError):
            striped.switch_path()

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
    paths = [[0, 1], [2, 3]]

    @staticmethod
    def utils(first, second):
        """Per-link utilization: ``first`` on path a-b-c, ``second`` on a-d-c."""
        return np.array([first, first, second, second])

    def fraction(self, rates, utils, paths=None):
        return reordering_retx_fraction_indexed(
            rates, self.paths if paths is None else paths, self.delays, utils
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
