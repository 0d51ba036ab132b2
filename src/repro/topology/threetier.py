"""Oversubscribed 8-core 3-tier topology (Cisco reference design).

The paper's third evaluation topology (§4.3.2) is a traditional tree with
oversubscription greater than 1: the access layer is 2.5:1 and the
aggregation layer 1.5:1. With uniform 1 Gbps links those ratios are realized
by:

* ``num_cores`` core switches (8 in the paper);
* pods of 2 aggregation switches, each uplinked to every core;
* ``access_per_pod`` access (ToR-layer) switches per pod, each dual-homed
  to both pod aggregation switches — 12 per pod gives the aggregation layer
  12 Gbps down vs 8 Gbps up = 1.5:1;
* ``hosts_per_access`` hosts per access switch — 5 gives the access layer
  5 Gbps down vs 2 Gbps up = 2.5:1.

Node naming: ``core_{i}``, ``agg_{pod}_{i}``, ``tor_{pod}_{i}`` (access
switches take the ToR role), ``h_{pod}_{tor}_{k}``.
"""

from __future__ import annotations

from repro.common.errors import TopologyError
from repro.common.units import GBPS
from repro.topology.graph import Node, NodeKind
from repro.topology.multirooted import MultiRootedTopology


class ThreeTier(MultiRootedTopology):
    """A traditional oversubscribed 3-tier datacenter tree."""

    def __init__(
        self,
        num_cores: int = 8,
        num_pods: int = 4,
        aggs_per_pod: int = 2,
        access_per_pod: int = 12,
        hosts_per_access: int = 5,
        link_bandwidth_bps: float = GBPS,
        host_bandwidth_bps: float = None,
        link_delay_s: float = 0.0001,
    ) -> None:
        if min(num_cores, num_pods, aggs_per_pod, access_per_pod, hosts_per_access) < 1:
            raise TopologyError("all 3-tier size parameters must be >= 1")
        super().__init__()
        self.num_cores = num_cores
        self.num_pods = num_pods
        self.aggs_per_pod = aggs_per_pod
        self.access_per_pod = access_per_pod
        self.hosts_per_access = hosts_per_access
        self.link_bandwidth_bps = link_bandwidth_bps
        self.host_bandwidth_bps = (
            host_bandwidth_bps if host_bandwidth_bps is not None else link_bandwidth_bps
        )
        self._build(link_delay_s)
        self.validate()

    @property
    def access_oversubscription(self) -> float:
        """Host-facing over uplink bandwidth at an access switch."""
        down = self.hosts_per_access * self.host_bandwidth_bps
        up = self.aggs_per_pod * self.link_bandwidth_bps
        return down / up

    @property
    def aggregation_oversubscription(self) -> float:
        """ToR-facing over core-facing bandwidth at an aggregation switch."""
        down = self.access_per_pod * self.link_bandwidth_bps
        up = self.num_cores * self.link_bandwidth_bps
        return down / up

    def _build(self, delay: float) -> None:
        link_bw, host_bw = self.link_bandwidth_bps, self.host_bandwidth_bps
        cores = [f"core_{c}" for c in range(self.num_cores)]
        for c, core in enumerate(cores):
            self.add_node(Node(core, NodeKind.CORE, pod=None, index=c))
        cables = []
        for pod in range(self.num_pods):
            aggs = [f"agg_{pod}_{a}" for a in range(self.aggs_per_pod)]
            for a, agg in enumerate(aggs):
                self.add_node(Node(agg, NodeKind.AGG, pod=pod, index=a))
                cables += [(agg, core, link_bw, delay) for core in cores]
            for t in range(self.access_per_pod):
                tor = f"tor_{pod}_{t}"
                self.add_node(Node(tor, NodeKind.TOR, pod=pod, index=t))
                cables += [(tor, agg, link_bw, delay) for agg in aggs]
                for k in range(self.hosts_per_access):
                    host = f"h_{pod}_{t}_{k}"
                    self.add_node(Node(host, NodeKind.HOST, pod=pod, index=k))
                    cables.append((host, tor, host_bw, delay))
        self.add_links(cables)

    def __repr__(self) -> str:
        return (
            f"ThreeTier(cores={self.num_cores}, pods={self.num_pods}, "
            f"hosts={len(self.hosts())})"
        )
