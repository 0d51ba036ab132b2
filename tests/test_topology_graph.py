"""Tests for the graph core (nodes, links, base Topology)."""

import hashlib
import json
import re

import pytest

from repro.common.errors import TopologyError
from repro.common.units import GBPS, MBPS
from repro.simulator import Network
from repro.simulator.linkindex import LinkIndex
from repro.topology import (
    ClosNetwork,
    FatTree,
    MultiRootedTopology,
    ThreeTier,
    TopologySpec,
    build_custom,
    build_topology,
)
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


class TestRecords:
    def test_fields_and_no_instance_dict(self):
        node = Node("h0", NodeKind.HOST, pod=1, index=2)
        link = Link("a", "b", GBPS, 0.5)
        assert Node._fields == ("name", "kind", "pod", "index")
        assert Link._fields == ("u", "v", "bandwidth_bps", "delay_s")
        assert not hasattr(node, "__dict__") and not hasattr(link, "__dict__")
        assert Node("c0", NodeKind.CORE) == Node("c0", NodeKind.CORE, None, 0)

    def test_immutable(self):
        link = Link("a", "b", GBPS)
        with pytest.raises(AttributeError):
            link.bandwidth_bps = 1.0
        with pytest.raises(AttributeError):
            Node("h0", NodeKind.HOST).pod = 3


def assert_tiny_unchanged(topo):
    """``tiny_topology``'s cables and neighbour lists, as built."""
    assert [(c.u, c.v) for c in topo.links()] == [("h0", "t0"), ("a0", "t0")]
    assert [topo.neighbors(n) for n in ("h0", "t0", "a0")] == [["t0"], ["h0", "a0"], ["t0"]]


class TestTopologyConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("x", NodeKind.HOST))
        with pytest.raises(TopologyError):
            topo.add_node(Node("x", NodeKind.TOR))

    def test_link_requires_existing_nodes(self):
        topo = tiny_topology()
        for u, v in (("h0", "ghost"), ("ghost", "t0")):
            with pytest.raises(TopologyError, match="^link endpoint 'ghost' is not a node$"):
                topo.add_link(u, v, GBPS)
        assert_tiny_unchanged(topo)

    def test_self_loop_rejected(self):
        topo = tiny_topology()
        with pytest.raises(TopologyError, match="^self-loop on 't0'$"):
            topo.add_link("t0", "t0", GBPS)
        assert_tiny_unchanged(topo)

    def test_duplicate_link_rejected_either_direction(self):
        topo = tiny_topology()
        for u, v in (("h0", "t0"), ("t0", "h0")):
            with pytest.raises(TopologyError, match=f"^duplicate link '{u}'-'{v}'$"):
                topo.add_link(u, v, GBPS)
        assert_tiny_unchanged(topo)


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


# ---------------------------------------------------------------------------
# Construction order
# ---------------------------------------------------------------------------

def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _order_digests(topo) -> dict:
    """sha256 of everything whose order a build fixes."""
    index = LinkIndex.from_topology(topo)
    tors = topo.tors()
    return {
        "nodes": _sha([(n.name, n.kind.value, n.pod, n.index) for n in topo.nodes.values()]),
        "cables": _sha([(c.u, c.v, c.bandwidth_bps, c.delay_s) for c in topo.links()]),
        "neighbors": _sha(
            [
                (name, topo.neighbors(name), topo.up_neighbors(name), topo.down_neighbors(name))
                for name in topo.nodes
            ]
        ),
        "link_index": _sha([index.links, index.capacities.tolist(), index.delays.tolist()]),
        "paths": _sha([list(topo.equal_cost_paths(tors[0], tor)) for tor in tors]),
    }


def _custom_with_overrides():
    return build_custom(
        TopologySpec(
            cores=["c1", "c0"],
            aggs={"a1": 1, "a0": 0, "a2": 1, "a3": 0},
            tors={"t0": 0, "t2": 1, "t1": 0, "t3": 1},
            hosts={"h3": "t3", "h0": "t0", "h1": "t0", "h2": "t1", "h4": "t2"},
            core_agg_links=[
                ("c0", "a0"), ("c1", "a1"), ("c0", "a2"), ("c1", "a3"), ("c0", "a1"),
            ],
            agg_tor_links=[
                ("a0", "t0"), ("a0", "t1"), ("a3", "t0"), ("a3", "t1"),
                ("a1", "t2"), ("a1", "t3"), ("a2", "t2"), ("a2", "t3"),
            ],
            link_bandwidth_bps=GBPS,
            host_bandwidth_bps=100 * MBPS,
            link_delay_s=0.0002,
            link_overrides={("a0", "t0"): 400 * MBPS, ("c1", "a3"): 250 * MBPS,
                            ("t3", "h3"): 10 * MBPS},
        )
    )


#: builder -> digests of its node, cable, neighbour, link-id and path order.
BUILD_ORDER = {
    "fattree4": (
        lambda: FatTree(p=4, link_bandwidth_bps=100 * MBPS),
        {
            "nodes": "416116d201e623b7c61b7e1c2ff5e8d5916c3f7162c6b8dbb652e871061b5804",
            "cables": "5bcf9e9c11d56ef630ff329457c8755b20ad07433878c4f47478103cf6b981ff",
            "neighbors": "ccaa0aadd752ab20162354af396f75c38b5a768daa397c82ea245b3349562b38",
            "link_index": "04586d0142dacf6e5d1ec5ff4e9f9e39f407e2e093f34054b1038e506d5a7066",
            "paths": "c7c02b6225c66e9ad2451f2b3a8c13ec231c609deb9356d050e6ad4cdd3eab8f",
        },
    ),
    "fattree8": (
        lambda: FatTree(p=8, link_bandwidth_bps=GBPS, host_bandwidth_bps=400 * MBPS,
                        link_delay_s=0.0003),
        {
            "nodes": "8e06a84d13d9bc6f85057c158c68d2e0f3b0b5f61d164cc4ddd3976e323439ac",
            "cables": "6160e482745b9ae89d67f77446a226e70a5e56bbcc590f94beea00306a9cc29a",
            "neighbors": "6174b3b92d2fb905c8efccdb9894a3eb335364ff987479166a40cd74b311ddf0",
            "link_index": "3e4bfdc40bacfefebfe6e2992117f48e89de5fef57c098682b35d7c1cf38ec17",
            "paths": "500bc77f585ec672d68372fe0ab2ff00022cb878f1a70974f1ca26c9ed0b61c8",
        },
    ),
    "fattree16": (
        lambda: build_topology("fattree", p=16, link_bandwidth_bps=100 * MBPS),
        {
            "nodes": "5b07f162d735a0a7a72b387f082339ab40a3e0c4c3f010bff17d9b8ec299bbca",
            "cables": "6140ed4efb7d5074851d0d30fd998f6b63f524c64aace4da95dfe5b949dd7ef4",
            "neighbors": "a94a2ac5c5ee3ad4b74bb4a62a72a26de460f700b2de22e9a62090385acb1c5b",
            "link_index": "ecff5604d14efc964cb861c06a8a42088b1742a1e4844e2ec4ccf1cfab42fe05",
            "paths": "c8cc545cde224f34c572c787fd532bb81552ed9623e3c27a409f209059e52d1c",
        },
    ),
    "clos44": (
        lambda: ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2, link_bandwidth_bps=100 * MBPS),
        {
            "nodes": "3ec0d7479986f9a92db586e7abc75f3c2fe99b9aca164e30fdf8ad2331c9dbb1",
            "cables": "cef2ea58d44e25bafec59feb737aa69494b5dddef652bdb01f7b9c65ffe08607",
            "neighbors": "bf70d7bb6784480fd5c5a10044e992c4aeaa7939dc4bfdcacd8c890b525ea091",
            "link_index": "8fe748697047ff664b97b95fa8b1bd20e248ebb699e2da8d797867a09f081896",
            "paths": "b9b4ad5d0733a41c8176f5ea7eed73205de1e82acf1b5dcf0aa1fb3fec072ce0",
        },
    ),
    "clos86": (
        lambda: ClosNetwork(d_i=8, d_a=6, hosts_per_tor=3, host_bandwidth_bps=400 * MBPS),
        {
            "nodes": "f2feb9fafe10bd9b3808b91914392cbe5ace9ab9be2bfdbd8cd7dd8d655bd0ed",
            "cables": "d6999b0a855cfa44741a278fb4b208d40692e8c3543dcaf6a472c77b29e60c1b",
            "neighbors": "227ebe608e48dd71296e5d564da08f7fdcb0c4c68b2ca507ec18d992d3d3d17e",
            "link_index": "f0484b4ae34b408f9dc6e594a7887ae15af2d9cd4a3024fb0f1df8ca4b12e767",
            "paths": "904b711d2974ac77d13cdffffbd9ca70ebf1fe8dc9c5ef305edd1c9ce4d5a015",
        },
    ),
    "threetier": (
        lambda: ThreeTier(num_cores=4, num_pods=2, aggs_per_pod=2, access_per_pod=6,
                          hosts_per_access=5, link_bandwidth_bps=100 * MBPS),
        {
            "nodes": "e6d6394aa17705aeb37e2762ce9192bd807da72a49fa3b3eb3f8d942d8ef8162",
            "cables": "d1f28c39159ae999e391806ef8566a3fc21c57be5b19c897df8abe18218adc73",
            "neighbors": "e2b620925b28102ba85c70a8ea46a4a511c47f3ebfc98018866c5ce3fa0044e3",
            "link_index": "22f72d2f81ff7e4f386101fd899be35bd0386eb31f59ff7cf15cca29ebc773c7",
            "paths": "da5424026c33e93a0b1d7e8f2ac5270e0b73f31be13faf51986f6a4e55f2ad49",
        },
    ),
    "custom": (
        _custom_with_overrides,
        {
            "nodes": "7f4fbde9cd43613bb4280f6de94a87964b37e649a87423f9a8e743aea33184a3",
            "cables": "6ab30ede0f447ddab3d17de7075f0e0036cfcaf6a93a5b4842a0ec2f10272d7a",
            "neighbors": "8fb5a0382a1f83bc2d4f7665afddd2378bfaa345268c9d9e613b74f3721e5de7",
            "link_index": "1e56a697003d2ce69fd420f9e7abb0a1136b76530a1de98de78b7bf470f1ddf9",
            "paths": "23a34bc627b4a70456675c5f1e333c7e43bd2318f5b4eaf081a5a2ca3f6ae253",
        },
    ),
}


class TestBuildOrder:
    """Pin the order a build puts nodes, cables and neighbours in.

    The order is part of the simulation's input: the cable order fixes
    every directed link's id, and the neighbour order fixes each ToR
    pair's equal-cost path order, which is what ECMP's hash and DARD's
    path indices pick from. A faster build that reorders anything moves
    every digest downstream; this test names which order moved.
    """

    @pytest.mark.parametrize("case", sorted(BUILD_ORDER))
    def test_order_matches_pinned_digests(self, case):
        build, expected = BUILD_ORDER[case]
        assert _order_digests(build()) == expected

    def test_builds_share_no_mutable_state(self):
        a = build_topology("fattree", p=4)
        b = build_topology("fattree", p=4)
        assert a is not b
        for attr in ("nodes", "_adj", "_links", "_kind_cache", "_up_cache",
                     "_down_cache", "_tor_cache"):
            assert getattr(a, attr) is not getattr(b, attr), attr
        assert not any(a._adj[name] is b._adj[name] for name in a.nodes)
        assert Network(a).link_index is not Network(a).link_index
        a.add_node(Node("extra", NodeKind.HOST))
        a.add_link("extra", "tor_0_0", GBPS)
        assert "extra" not in b.nodes
        assert "extra" not in b.neighbors("tor_0_0")
        assert b.num_links == a.num_links - 1


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

def _tree(extra_nodes=(), extra_links=(), drop=()):
    """c0 - a0 - t0 - h0, plus the extras, minus the nodes in ``drop``;
    not validated."""
    topo = MultiRootedTopology()
    nodes = [
        Node("c0", NodeKind.CORE), Node("a0", NodeKind.AGG, pod=0),
        Node("t0", NodeKind.TOR, pod=0), Node("h0", NodeKind.HOST, pod=0),
        *extra_nodes,
    ]
    links = [("c0", "a0"), ("a0", "t0"), ("h0", "t0"), *extra_links]
    for node in nodes:
        if node.name not in drop:
            topo.add_node(node)
    for u, v in links:
        if u not in drop and v not in drop:
            topo.add_link(u, v, GBPS)
    return topo


class TestValidateRefusals:
    def test_minimal_tree_validates(self):
        _tree().validate()

    @pytest.mark.parametrize(
        "topo, message",
        [
            (
                _tree([Node("t1", NodeKind.TOR, pod=0)], [("a0", "t1"), ("h0", "t1")]),
                "host 'h0' has 2 ToR uplinks, expected 1",
            ),
            (
                _tree([Node("h1", NodeKind.HOST, pod=0)]),
                "host 'h1' has 0 ToR uplinks, expected 1",
            ),
            (
                _tree([Node("t1", NodeKind.TOR, pod=0), Node("h1", NodeKind.HOST, pod=0)],
                      [("h1", "t1")]),
                "ToR 't1' has no aggregation uplink",
            ),
            (
                _tree([Node("a1", NodeKind.AGG, pod=0)], [("a1", "t0")]),
                "aggregation switch 'a1' has no core uplink",
            ),
            (
                _tree([Node("a1", NodeKind.AGG, pod=0)], [("c0", "a1")]),
                "aggregation switch 'a1' has no ToR downlink",
            ),
            (_tree([Node("c1", NodeKind.CORE)]), "core 'c1' has no downlinks"),
            (_tree(drop={"c0"}), "topology has no core switches"),
            (_tree(drop={"h0"}), "topology has no hosts"),
        ],
        ids=["two-uplinks", "no-uplink", "tor-no-agg", "agg-no-core", "agg-no-tor",
             "core-no-down", "no-cores", "no-hosts"],
    )
    def test_refuses(self, topo, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            topo.validate()


class TestCableRefusals:
    """``add_links``'s refusals: ``add_link``'s three, row by row (see
    ``TestTopologyConstruction`` for ``add_link`` itself)."""

    @pytest.mark.parametrize(
        "cables, message",
        [
            ([("a0", "h0", GBPS, 0.0), ("h0", "ghost", GBPS, 0.0)],
             "link endpoint 'ghost' is not a node"),
            ([("a0", "h0", GBPS, 0.0), ("a0", "a0", GBPS, 0.0)], "self-loop on 'a0'"),
            ([("a0", "h0", GBPS, 0.0), ("t0", "a0", GBPS, 0.0)], "duplicate link 't0'-'a0'"),
            ([("a0", "h0", GBPS, 0.0), ("h0", "a0", GBPS, 0.0)], "duplicate link 'h0'-'a0'"),
            ([("a0", "h0", GBPS, 0.0), ("a0", "h0", GBPS, 0.0)], "duplicate link 'a0'-'h0'"),
        ],
        ids=["unknown", "self-loop", "duplicate-present", "duplicate-in-batch-reversed",
             "duplicate-in-batch"],
    )
    def test_add_links_refuses(self, cables, message):
        topo = tiny_topology()
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            topo.add_links(cables)

    def test_add_links_keeps_cable_and_neighbour_order(self):
        topo = tiny_topology()
        topo.add_node(Node("c0", NodeKind.CORE))
        topo.add_links([("c0", "a0", GBPS, 0.5), ("h0", "a0", 2 * GBPS, 0.25)])
        # Stored under the sorted pair, in batch order.
        assert list(topo.links())[2:] == [Link("a0", "c0", GBPS, 0.5),
                                         Link("a0", "h0", 2 * GBPS, 0.25)]
        assert topo.neighbors("a0") == ["t0", "c0", "h0"]
        assert topo.link("h0", "a0") is topo.link("a0", "h0")
