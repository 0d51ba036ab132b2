"""Tests for the Network: flow lifecycle, fair sharing, reroutes, state queries."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import MB, MBPS
from repro.core.monitor import index_pair_paths
from repro.simulator import FlowComponent, Network
from repro.topology import FatTree
from repro.validation.twins import path_state_scalar


@pytest.fixture
def net():
    return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))


def component(net, src, dst, index=0, weight=1.0):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.component(src, dst, paths, index, weight)


class TestFlowLifecycle:
    def test_single_flow_exact_fct(self, net):
        net.start_flow("h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")])
        net.engine.run_until_idle()
        assert len(net.records) == 1
        # 10 MB = 80 Mbit at 100 Mbps -> 0.8 s.
        assert net.records[0].fct == pytest.approx(0.8)

    def test_two_flows_one_bottleneck_share_fairly(self, net):
        src = "h_0_0_0"
        for dst in ("h_1_0_0", "h_2_0_0"):
            net.start_flow(src, dst, 10 * MB, [component(net, src, dst)])
        net.engine.run_until_idle()
        # Both bottlenecked on src's access link at 50 Mbps -> 1.6 s.
        assert [r.fct for r in net.records] == pytest.approx([1.6, 1.6])

    def test_rate_rises_when_competitor_finishes(self, net):
        src = "h_0_0_0"
        net.start_flow(src, "h_1_0_0", 10 * MB, [component(net, src, "h_1_0_0")])
        net.start_flow(src, "h_2_0_0", 20 * MB, [component(net, src, "h_2_0_0")])
        net.engine.run_until_idle()
        by_dst = {r.dst: r for r in net.records}
        assert by_dst["h_1_0_0"].fct == pytest.approx(1.6)
        # Second flow: 10 MB at 50 Mbps (1.6 s) + 10 MB at 100 Mbps (0.8 s).
        assert by_dst["h_2_0_0"].fct == pytest.approx(2.4)

    def test_staggered_arrival(self, net):
        src = "h_0_0_0"
        net.start_flow(src, "h_1_0_0", 10 * MB, [component(net, src, "h_1_0_0")])
        net.engine.schedule_at(
            0.4,
            lambda: net.start_flow(src, "h_2_0_0", 10 * MB, [component(net, src, "h_2_0_0")]),
        )
        net.engine.run_until_idle()
        by_dst = {r.dst: r for r in net.records}
        # First: 5 MB alone (0.4 s) + 5 MB shared at 50 Mbps (0.8 s) = 1.2 s.
        assert by_dst["h_1_0_0"].fct == pytest.approx(1.2)

    def test_flow_size_must_be_positive(self, net):
        with pytest.raises(SimulationError):
            net.start_flow("h_0_0_0", "h_1_0_0", 0, [component(net, "h_0_0_0", "h_1_0_0")])

    def test_record_fields(self, net):
        net.start_flow("h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")])
        net.engine.run_until_idle()
        record = net.records[0]
        assert record.src == "h_0_0_0"
        assert record.dst == "h_1_0_0"
        assert record.start_time == 0.0
        assert record.path_switches == 0
        assert not record.was_elephant  # finished long before 10 s


class TestElephantPromotion:
    def test_long_flow_promoted_at_threshold(self, net):
        # 128 MB at <= 100 Mbps takes > 10.24 s -> becomes an elephant.
        promoted = []
        net.elephant_listeners.append(lambda f: promoted.append(net.engine.now))
        net.start_flow("h_0_0_0", "h_1_0_0", 128 * MB, [component(net, "h_0_0_0", "h_1_0_0")])
        net.engine.run_until_idle()
        assert promoted == [10.0]
        assert net.records[0].was_elephant
        assert net.peak_elephants == 1

    def test_short_flow_never_promoted(self, net):
        net.start_flow("h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")])
        net.engine.run_until_idle()
        assert net.peak_elephants == 0

    def test_custom_threshold(self):
        net = Network(
            FatTree(p=4, link_bandwidth_bps=100 * MBPS), elephant_age_s=2.0
        )
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 40 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until_idle()
        assert net.records[0].was_elephant  # 3.2 s > 2 s threshold


class TestLinkStateQueries:
    def test_elephant_count_per_link(self, net):
        net.start_flow("h_0_0_0", "h_1_0_0", 256 * MB, [component(net, "h_0_0_0", "h_1_0_0")])
        net.engine.run_until(11.0)
        state = net.link_state("h_0_0_0", "tor_0_0")
        assert state.total_flows == 1
        assert state.elephant_flows == 1
        assert state.bonf == pytest.approx(100 * MBPS)

    def test_empty_link_has_infinite_bonf(self, net):
        state = net.link_state("core_0_0", "agg_0_0")
        assert state.elephant_flows == 0
        assert state.bonf == float("inf")

    def test_unknown_link_rejected(self, net):
        with pytest.raises(SimulationError):
            net.link_state("h_0_0_0", "core_0_0")

    def test_path_state_skips_host_links(self, net):
        # Two elephants share the host access link but ride disjoint
        # switch paths (indices 0 and 2 use different aggregation switches).
        src = "h_0_0_0"
        net.start_flow(src, "h_1_0_0", 256 * MB, [component(net, src, "h_1_0_0", 0)])
        net.start_flow(src, "h_2_0_0", 256 * MB, [component(net, src, "h_2_0_0", 2)])
        net.engine.run_until(11.0)
        pair = index_pair_paths(net, "tor_0_0", "tor_1_0")
        band, eleph = net.batch_path_state_arrays(pair.hops)
        scalar = path_state_scalar(net, pair.paths[0])
        # Only one elephant rides this switch path; the shared host link
        # (2 elephants) is excluded per the paper (§2.2).
        assert net.link_state(src, "tor_0_0").elephant_flows == 2
        assert (band[0], eleph[0]) == (scalar.bandwidth_bps, scalar.flow_numbers)
        assert eleph[0] == 1

    def test_path_state_needs_switch_links(self, net):
        # A ToR paired with itself has no switch-switch hop to poll.
        pair = index_pair_paths(net, "tor_0_0", "tor_0_0")
        with pytest.raises(SimulationError):
            net.batch_path_state_arrays(pair.hops)


class TestReroute:
    def test_reroute_changes_path_and_counts(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 50 * MB, [component(net, src, dst, 0)])
        net.engine.run_until(1.0)
        net.reroute_flow(flow, [component(net, src, dst, 3)])
        net.engine.run_until_idle()
        record = net.records[0]
        assert record.path_switches == 1
        assert record.retransmitted_bytes > 0  # window retransmission cost

    def test_reroute_without_penalty(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 50 * MB, [component(net, src, dst, 0)])
        net.engine.run_until(1.0)
        net.reroute_flow(
            flow, [component(net, src, dst, 3)], count_switch=False, retx_penalty=False
        )
        net.engine.run_until_idle()
        record = net.records[0]
        assert record.path_switches == 0
        assert record.retransmitted_bytes == 0

    def test_reroute_updates_link_counts(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 500 * MB, [component(net, src, dst, 0)])
        net.engine.run_until(11.0)  # promoted
        old_links = flow.components[0].link_ids
        net.reroute_flow(flow, [component(net, src, dst, 3)])
        new_links = flow.components[0].link_ids
        changed = set(old_links) - set(new_links)
        assert changed
        for link in changed:
            u, v = net.link_index.links[link]
            assert net.link_state(u, v).total_flows == 0
            assert net.link_state(u, v).elephant_flows == 0
        for link in new_links:
            assert net.link_state(*net.link_index.links[link]).elephant_flows == 1

    def test_reroute_finished_flow_rejected(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 1 * MB, [component(net, src, dst)])
        net.engine.run_until_idle()
        with pytest.raises(SimulationError):
            net.reroute_flow(flow, [component(net, src, dst, 1)])

    def test_component_validation(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        ids = net.link_index.ids
        bad = FlowComponent(0, [ids[(src, "tor_0_0")], ids[("tor_0_0", "h_0_0_1")]])
        with pytest.raises(SimulationError):
            net.start_flow(src, dst, 1 * MB, [bad])
        with pytest.raises(IndexError):
            component(net, src, dst, 4)


class TestMultiComponentFlows:
    def test_striped_flow_aggregates_rate(self, net):
        """A two-path striped flow can beat a single path's capacity only
        when the host link allows; here the host link caps it at 100 Mbps,
        same as single path, but reordering charges retransmissions."""
        src, dst = "h_0_0_0", "h_1_0_0"
        components = [
            component(net, src, dst, 0, weight=0.5),
            component(net, src, dst, 1, weight=0.5),
        ]
        flow = net.start_flow(src, dst, 10 * MB, components)
        net.engine.run_until(0.1)
        assert flow.rate_bps == pytest.approx(100 * MBPS, rel=1e-6)

    def test_multi_component_counts_flow_once_per_link(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        components = [component(net, src, dst, i, weight=0.25) for i in range(4)]
        net.start_flow(src, dst, 500 * MB, components)
        net.engine.run_until(11.0)
        # The shared host link sees ONE flow, not four.
        assert net.link_state(src, "tor_0_0").total_flows == 1
