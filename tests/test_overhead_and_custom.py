"""Tests for the analytic overhead models, the invariant battery, and
custom topologies built from specs."""

import pytest

from repro.common.errors import SimulationError, TopologyError
from repro.common.units import MB, MBPS, GBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import (
    centralized_rate_bytes_per_s,
    dard_probe_ceiling_bytes_per_s,
    overhead_model,
)
from repro.core.overhead import bytes_per_monitor_round, dard_probe_rate_bytes_per_s
from repro.experiments import ScenarioConfig, run_scenario
from repro.simulator import Network
from repro.switches import SwitchFabric
from repro.topology import FatTree, TopologySpec, build_custom
from repro.validation import InvariantChecker


class TestOverheadModel:
    def test_monitor_round_cost_fattree_interpod(self, fattree4):
        # 9 switches x (48 + 32) bytes.
        cost = bytes_per_monitor_round(fattree4, "tor_0_0", "tor_1_0")
        assert cost == 9 * 80

    def test_ceiling_counts_every_pair(self, fattree4):
        ceiling = dard_probe_ceiling_bytes_per_s(fattree4, query_interval_s=1.0)
        # 8 ToRs x 2 hosts; per host: 6 inter-pod (9 switches) + 1
        # intra-pod (3 switches) destinations.
        per_host = 6 * 9 * 80 + 1 * 3 * 80
        assert ceiling == 16 * per_host

    def test_ceiling_scales_with_interval(self, fattree4):
        fast = dard_probe_ceiling_bytes_per_s(fattree4, query_interval_s=0.5)
        slow = dard_probe_ceiling_bytes_per_s(fattree4, query_interval_s=2.0)
        assert fast == 4 * slow

    def test_invalid_interval(self, fattree4):
        with pytest.raises(ValueError):
            dard_probe_ceiling_bytes_per_s(fattree4, query_interval_s=0)

    def test_centralized_linear_in_flows(self):
        one = centralized_rate_bytes_per_s(100, updates_per_round=0)
        two = centralized_rate_bytes_per_s(200, updates_per_round=0)
        assert two == 2 * one
        with pytest.raises(ValueError):
            centralized_rate_bytes_per_s(1, 0, scheduling_interval_s=0)

    def test_simulated_dard_overhead_below_ceiling(self):
        """The simulator's measured probe bandwidth never beats the math."""
        config = ScenarioConfig(
            topology="fattree",
            topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
            pattern="stride",
            scheduler="dard",
            arrival_rate_per_host=0.10,
            duration_s=60.0,
            flow_size_bytes=128 * MB,
            seed=2,
        )
        result = run_scenario(config)
        ceiling = dard_probe_ceiling_bytes_per_s(
            FatTree(p=4, link_bandwidth_bps=100 * MBPS), query_interval_s=1.0
        )
        assert result.control_bytes_per_second < ceiling

    def test_bundle(self, fattree4):
        model = overhead_model(fattree4)
        assert model.dard_ceiling_bytes_per_s > 0
        assert model.bytes_per_monitor_round == 9 * 80
        assert model.report_bytes_per_elephant == 80.0

    def test_estimated_rate(self, fattree4):
        rate = dard_probe_rate_bytes_per_s(fattree4, active_pairs=10)
        assert rate == 10 * 9 * 80


class TestCheckInvariants:
    def test_clean_network_passes(self, fattree4):
        net = Network(fattree4)
        paths = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 50 * MB, [net.component("h_0_0_0", "h_1_0_0", paths, 0)]
        )
        net.engine.run_until(1.0)
        InvariantChecker(net).run_checks()  # must not raise

    def test_corrupted_counter_detected(self, fattree4):
        net = Network(fattree4)
        paths = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 50 * MB, [net.component("h_0_0_0", "h_1_0_0", paths, 0)]
        )
        net.engine.run_until(1.0)
        # Sabotage a counter the way a buggy scheduler extension might.
        net._eleph_array[0] += 1
        with pytest.raises(SimulationError, match="elephant-counter"):
            InvariantChecker(net).run_checks()

    def test_negative_bytes_detected(self, fattree4):
        net = Network(fattree4)
        paths = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 50 * MB, [net.component("h_0_0_0", "h_1_0_0", paths, 0)]
        )
        flow.remaining_bytes = -5.0
        with pytest.raises(SimulationError):
            InvariantChecker(net).run_checks()


def two_agg_spec(**overrides):
    defaults = dict(
        cores=["c0"],
        aggs={"a0": 0, "a1": 0},
        tors={"t0": 0, "t1": 0},
        hosts={"h0": "t0", "h1": "t1"},
        core_agg_links=[("c0", "a0"), ("c0", "a1")],
        agg_tor_links=[("a0", "t0"), ("a0", "t1"), ("a1", "t0"), ("a1", "t1")],
    )
    defaults.update(overrides)
    return TopologySpec(**defaults)


class TestCustomTopology:
    def test_builds_and_validates(self):
        topo = build_custom(two_agg_spec())
        assert topo.hosts() == ["h0", "h1"]
        assert len(topo.equal_cost_paths("t0", "t1")) == 2

    def test_full_stack_works_on_custom(self):
        """Addressing, switch tables, and forwarding all work unchanged."""
        topo = build_custom(two_agg_spec())
        addressing = HierarchicalAddressing(topo)
        codec = PathCodec(addressing)
        fabric = SwitchFabric(addressing)
        for path in topo.equal_cost_paths("t0", "t1"):
            src_addr, dst_addr = codec.encode("h0", "h1", path)
            assert fabric.forward_trace("h0", src_addr, dst_addr) == ("h0",) + path + ("h1",)

    def test_simulation_on_custom(self):
        topo = build_custom(two_agg_spec(link_bandwidth_bps=100 * MBPS))
        net = Network(topo)
        paths = topo.equal_cost_paths("t0", "t1")
        net.start_flow("h0", "h1", 10 * MB, [net.component("h0", "h1", paths, 0)])
        net.engine.run_until_idle()
        assert net.records[0].fct == pytest.approx(0.8)

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            build_custom(two_agg_spec(hosts={"a0": "t0"}))

    def test_unknown_wiring_rejected(self):
        with pytest.raises(TopologyError):
            build_custom(two_agg_spec(core_agg_links=[("c0", "ghost")]))
        with pytest.raises(TopologyError):
            build_custom(two_agg_spec(hosts={"h0": "ghost"}))

    def test_disconnected_layer_rejected(self):
        # a1 has no ToR links -> validate() fails.
        with pytest.raises(TopologyError):
            build_custom(two_agg_spec(agg_tor_links=[("a0", "t0"), ("a0", "t1")]))

    def test_link_overrides(self):
        spec = two_agg_spec(
            link_bandwidth_bps=GBPS,
            link_overrides={("a0", "t0"): 100 * MBPS},
        )
        topo = build_custom(spec)
        assert topo.link("a0", "t0").bandwidth_bps == 100 * MBPS
        assert topo.link("a0", "t1").bandwidth_bps == GBPS

    def test_host_bandwidth_layer_default(self):
        topo = build_custom(two_agg_spec(host_bandwidth_bps=100 * MBPS))
        assert topo.link("h0", "t0").bandwidth_bps == 100 * MBPS
        assert topo.link("c0", "a0").bandwidth_bps == GBPS
