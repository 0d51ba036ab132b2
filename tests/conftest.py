"""Shared fixtures: small topologies with their addressing and fabrics."""

import pytest

from repro.addressing import HierarchicalAddressing, PathCodec
from repro.common.units import MBPS
from repro.switches import SwitchFabric
from repro.topology import ClosNetwork, FatTree, ThreeTier


@pytest.fixture(scope="session")
def fattree4():
    """The paper's testbed topology: p=4 fat-tree at 100 Mbps."""
    return FatTree(p=4, link_bandwidth_bps=100 * MBPS)


@pytest.fixture(scope="session")
def clos44():
    """A small Clos network: D_I = D_A = 4, two hosts per ToR."""
    return ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2, link_bandwidth_bps=100 * MBPS)


@pytest.fixture(scope="session")
def threetier_small():
    """A scaled 3-tier with the paper's oversubscription ratios."""
    return ThreeTier(
        num_cores=4,
        num_pods=2,
        aggs_per_pod=2,
        access_per_pod=6,
        hosts_per_access=5,
        link_bandwidth_bps=100 * MBPS,
    )


@pytest.fixture(scope="session")
def fattree4_addressing(fattree4):
    return HierarchicalAddressing(fattree4)


@pytest.fixture(scope="session")
def fattree4_codec(fattree4_addressing):
    return PathCodec(fattree4_addressing)


@pytest.fixture(scope="session")
def fattree4_fabric(fattree4_addressing):
    return SwitchFabric(fattree4_addressing)


@pytest.fixture(scope="session")
def clos44_addressing(clos44):
    return HierarchicalAddressing(clos44)


@pytest.fixture(scope="session")
def clos44_fabric(clos44_addressing):
    return SwitchFabric(clos44_addressing)


def flow_path(topology, flow, component=0):
    """The host-to-host node path of one of a flow's components, built
    from its path index (flows carry no node names)."""
    return topology.host_path_at(flow.src, flow.dst, flow.components[component].index)


def pair_component(network, src, dst, index=0, weight=1.0):
    """The component on the ``index``-th equal-cost path from ``src`` to ``dst``."""
    topo = network.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return network.component(src, dst, paths, index, weight)
