"""Tests for flow tables, switches, fabric forwarding, and the paper's
Table 2 / Table 3 structure."""

import pytest

from repro.common.errors import RoutingError
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.addressing.prefix import Prefix
from repro.switches import FlowTable, SwitchFabric


class TestFlowTable:
    def test_longest_prefix_wins(self):
        table = FlowTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        table.add(Prefix.parse("10.4.0.0/14"), 2)
        assert table.lookup(Prefix.parse("10.4.16.0/24").value) == 2
        assert table.lookup(Prefix.parse("10.8.0.0/16").value) == 1

    def test_miss_returns_none(self):
        table = FlowTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        assert table.lookup(Prefix.parse("11.0.0.0/8").value) is None

    def test_duplicate_same_port_idempotent(self):
        table = FlowTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        assert len(table) == 1

    def test_conflicting_ports_rejected(self):
        table = FlowTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        with pytest.raises(RoutingError):
            table.add(Prefix.parse("10.0.0.0/8"), 2)

    def test_entries_sorted_longest_first(self):
        table = FlowTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        table.add(Prefix.parse("10.4.0.0/14"), 2)
        lengths = [e.prefix.length for e in table.entries()]
        assert lengths == sorted(lengths, reverse=True)

    def test_contains(self):
        table = FlowTable()
        pfx = Prefix.parse("10.4.0.0/14")
        table.add(pfx, 3)
        assert pfx in table
        assert Prefix.parse("10.8.0.0/14") not in table

    def test_default_route_zero_length(self):
        table = FlowTable()
        table.add(Prefix.parse("0.0.0.0/0"), 9)
        assert table.lookup(12345) == 9


class TestSwitchStructure:
    def test_ports_one_based_deterministic(self, fattree4_fabric):
        sw = fattree4_fabric.switch("agg_0_0")
        assert sorted(sw.ports) == [1, 2, 3, 4]
        assert set(sw.ports.values()) == set(
            ["core_0_0", "core_0_1", "tor_0_0", "tor_0_1"]
        )

    def test_unknown_switch(self, fattree4_fabric):
        with pytest.raises(RoutingError):
            fattree4_fabric.switch("h_0_0_0")

    def test_agg_table_shape_matches_table2(self, fattree4, fattree4_fabric):
        """Paper Table 2: an aggregation switch has one downhill entry per
        (core, tor) chain through it and one uphill entry per core above."""
        sw = fattree4_fabric.switch("agg_0_0")
        num_cores_above = len(fattree4.up_neighbors("agg_0_0"))
        num_tors_below = len(fattree4.down_neighbors("agg_0_0"))
        assert len(sw.uphill) == num_cores_above
        assert len(sw.downhill) == num_cores_above * num_tors_below

    def test_core_has_no_uphill_table(self, fattree4_fabric):
        """'A core switch only has the downhill table' (§2.3)."""
        for name, sw in fattree4_fabric.switches.items():
            if name.startswith("core"):
                assert len(sw.uphill) == 0
                assert len(sw.downhill) > 0

    def test_tor_downhill_hosts_uphill_chains(self, fattree4, fattree4_fabric):
        sw = fattree4_fabric.switch("tor_0_0")
        hosts = len(fattree4.hosts_of_tor("tor_0_0"))
        chains = len(fattree4.chains_to_tor("tor_0_0"))
        assert len(sw.downhill) == hosts * chains
        assert len(sw.uphill) == chains

    def test_forward_miss_raises(self, fattree4_fabric):
        sw = fattree4_fabric.switch("core_0_0")
        with pytest.raises(RoutingError):
            sw.forward(0, 0)

    def test_merged_table_matches_table3(self, fattree4, fattree4_fabric):
        """Paper Table 3: for fat-trees a single destination-based table is
        equivalent — all entries merge without conflicts."""
        sw = fattree4_fabric.switch("agg_0_0")
        merged = sw.merged_routing_table()
        assert len(merged) == len(sw.downhill) + len(sw.uphill)


class TestFabricForwarding:
    def test_trace_follows_encoded_path_everywhere(self, fattree4, fattree4_codec, fattree4_fabric):
        src, dst = "h_0_0_0", "h_2_1_0"
        for path in fattree4.equal_cost_paths("tor_0_0", "tor_2_1"):
            src_addr, dst_addr = fattree4_codec.encode(src, dst, path)
            trace = fattree4_fabric.forward_trace(src, src_addr, dst_addr)
            assert trace == (src,) + path + (dst,)

    def test_trace_same_tor(self, fattree4, fattree4_codec, fattree4_fabric):
        src, dst = "h_0_0_0", "h_0_0_1"
        src_addr, dst_addr = fattree4_codec.encode(src, dst, ("tor_0_0",))
        assert fattree4_fabric.forward_trace(src, src_addr, dst_addr) == (
            src, "tor_0_0", dst,
        )

    def test_trace_detects_black_hole(self, fattree4_fabric):
        with pytest.raises(RoutingError):
            fattree4_fabric.forward_trace("h_0_0_0", 0, 0)

    def test_clos_trace_all_paths(self, clos44, clos44_fabric, clos44_addressing):
        codec = PathCodec(clos44_addressing)
        src, dst = "h_0_0", "h_2_0"
        for path in clos44.equal_cost_paths("tor_0", "tor_2"):
            src_addr, dst_addr = codec.encode(src, dst, path)
            trace = clos44_fabric.forward_trace(src, src_addr, dst_addr)
            assert trace == (src,) + path + (dst,)

    def test_threetier_trace_all_paths(self, threetier_small):
        addressing = HierarchicalAddressing(threetier_small)
        fabric = SwitchFabric(addressing)
        codec = PathCodec(addressing)
        src, dst = "h_0_0_0", "h_1_0_0"
        for path in threetier_small.equal_cost_paths("tor_0_0", "tor_1_0"):
            src_addr, dst_addr = codec.encode(src, dst, path)
            assert fabric.forward_trace(src, src_addr, dst_addr) == (src,) + path + (dst,)

    def test_table_entry_count_is_topology_bounded(self, fattree4, fattree4_fabric):
        """Static tables scale with topology size, never with flow count."""
        assert fattree4_fabric.num_table_entries() == sum(
            len(sw.downhill) + len(sw.uphill)
            for sw in fattree4_fabric.switches.values()
        )
        assert fattree4_fabric.num_table_entries() < 500
