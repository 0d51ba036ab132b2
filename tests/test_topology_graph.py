"""Tests for the graph core (nodes, links, base Topology)."""

import pytest

from repro.common.errors import TopologyError
from repro.common.units import GBPS
from repro.topology.graph import Link, Node, NodeKind, Topology


def tiny_topology():
    topo = Topology()
    topo.add_node(Node("h0", NodeKind.HOST))
    topo.add_node(Node("t0", NodeKind.TOR))
    topo.add_node(Node("a0", NodeKind.AGG))
    topo.add_link("h0", "t0", GBPS)
    topo.add_link("t0", "a0", GBPS)
    return topo


class TestNodeKind:
    def test_layers_ascend(self):
        assert NodeKind.HOST.layer == 0
        assert NodeKind.TOR.layer == 1
        assert NodeKind.AGG.layer == 2
        assert NodeKind.CORE.layer == 3

    def test_switchness(self):
        assert not NodeKind.HOST.is_switch
        assert NodeKind.TOR.is_switch
        assert NodeKind.CORE.is_switch


class TestTopologyConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("x", NodeKind.HOST))
        with pytest.raises(TopologyError):
            topo.add_node(Node("x", NodeKind.TOR))

    def test_link_requires_existing_nodes(self):
        topo = Topology()
        topo.add_node(Node("x", NodeKind.HOST))
        with pytest.raises(TopologyError):
            topo.add_link("x", "ghost", GBPS)

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node(Node("x", NodeKind.TOR))
        with pytest.raises(TopologyError):
            topo.add_link("x", "x", GBPS)

    def test_duplicate_link_rejected_either_direction(self):
        topo = tiny_topology()
        with pytest.raises(TopologyError):
            topo.add_link("t0", "h0", GBPS)


class TestTopologyQueries:
    def test_neighbors(self):
        topo = tiny_topology()
        assert topo.neighbors("t0") == ["h0", "a0"]

    def test_link_symmetric_lookup(self):
        topo = tiny_topology()
        assert topo.link("h0", "t0") is topo.link("t0", "h0")

    def test_missing_link_raises(self):
        topo = tiny_topology()
        with pytest.raises(TopologyError):
            topo.link("h0", "a0")

    def test_missing_node_raises(self):
        topo = tiny_topology()
        with pytest.raises(TopologyError):
            topo.node("nope")
        with pytest.raises(TopologyError):
            topo.neighbors("nope")

    def test_directed_links_double_cables(self):
        topo = tiny_topology()
        directed = list(topo.directed_links())
        assert len(directed) == 2 * topo.num_links
        assert ("h0", "t0") in directed and ("t0", "h0") in directed

    def test_kind_filters(self):
        topo = tiny_topology()
        assert topo.hosts() == ["h0"]
        assert sorted(topo.switches()) == ["a0", "t0"]

    def test_kind_memo_follows_add_node(self):
        topo = tiny_topology()
        hosts = topo.hosts()
        hosts.append("mutated")  # callers get a copy, not the memo
        assert topo.hosts() == ["h0"]
        topo.add_node(Node("h1", NodeKind.HOST))
        assert topo.hosts() == ["h0", "h1"]
        assert topo.nodes_of_kind(NodeKind.AGG) == ["a0"]

    def test_path_links_validates_adjacency(self):
        topo = tiny_topology()
        assert topo.path_links(("h0", "t0", "a0")) == (("h0", "t0"), ("t0", "a0"))
        with pytest.raises(TopologyError):
            topo.path_links(("h0", "a0"))

    def test_link_defaults(self):
        link = Link("a", "b", GBPS)
        assert link.delay_s == pytest.approx(0.0001)
        assert link.endpoints() == ("a", "b")
