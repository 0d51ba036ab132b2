"""Clos network topology (VL2-style; Greenberg et al., SIGCOMM 2009).

Parameterized by the intermediate-switch radix ``D_I`` and the
aggregation-switch radix ``D_A``:

* ``D_A / 2`` intermediate (core-layer) switches, each with ``D_I`` ports,
  one to every aggregation switch;
* ``D_I`` aggregation switches: ``D_A / 2`` ports up (one per intermediate)
  and ``D_A / 2`` ports down to ToRs;
* ``D_I * D_A / 4`` ToR switches, each dual-homed to two aggregation
  switches, each serving ``hosts_per_tor`` hosts.

A ToR pair in different pods has ``2 * D_A`` equal-cost paths: 2 uphill
aggregation choices x ``D_A/2`` intermediates x 2 downhill aggregation
choices. Unlike the fat-tree, picking the intermediate alone does *not*
determine the path — the uphill and downhill aggregation switches must be
named too, which is exactly why DARD keeps both uphill and downhill tables
(paper §2.3).

Node naming: ``core_{i}`` (intermediates), ``agg_{i}``, ``tor_{i}``,
``h_{tor}_{k}``. A ToR's "pod" is the index of its lower-numbered parent
aggregation switch pair.
"""

from __future__ import annotations

from repro.common.errors import TopologyError
from repro.common.units import GBPS
from repro.topology.graph import Node, NodeKind
from repro.topology.multirooted import MultiRootedTopology


class ClosNetwork(MultiRootedTopology):
    """A VL2-style Clos network with dual-homed ToR switches."""

    def __init__(
        self,
        d_i: int = 4,
        d_a: int = 4,
        hosts_per_tor: int = 2,
        link_bandwidth_bps: float = GBPS,
        host_bandwidth_bps: float = None,
        link_delay_s: float = 0.0001,
    ) -> None:
        if d_i < 2 or d_a < 2 or d_a % 2 != 0:
            raise TopologyError(f"invalid Clos radices d_i={d_i}, d_a={d_a}")
        if d_i % 2 != 0:
            raise TopologyError(f"d_i must be even (ToRs are dual-homed), got {d_i}")
        if hosts_per_tor < 1:
            raise TopologyError(f"hosts_per_tor must be >= 1, got {hosts_per_tor}")
        super().__init__()
        self.d_i = d_i
        self.d_a = d_a
        self.hosts_per_tor = hosts_per_tor
        self.link_bandwidth_bps = link_bandwidth_bps
        self.host_bandwidth_bps = (
            host_bandwidth_bps if host_bandwidth_bps is not None else link_bandwidth_bps
        )
        self._build(link_delay_s)
        self.validate()

    @property
    def num_intermediates(self) -> int:
        return self.d_a // 2

    @property
    def num_aggs(self) -> int:
        return self.d_i

    @property
    def num_tors(self) -> int:
        return self.d_i * self.d_a // 4

    @property
    def paths_per_inter_pod_pair(self) -> int:
        """2 up-aggs x D_A/2 intermediates x 2 down-aggs = 2 * D_A."""
        return 2 * self.d_a

    def _build(self, delay: float) -> None:
        link_bw, host_bw = self.link_bandwidth_bps, self.host_bandwidth_bps
        cores = [f"core_{i}" for i in range(self.num_intermediates)]
        aggs = [f"agg_{i}" for i in range(self.num_aggs)]
        for i, core in enumerate(cores):
            self.add_node(Node(core, NodeKind.CORE, pod=None, index=i))
        cables = []
        # Aggregation switches are paired: pair k = (agg_{2k}, agg_{2k+1}).
        for i, agg in enumerate(aggs):
            self.add_node(Node(agg, NodeKind.AGG, pod=i // 2, index=i))
            cables += [(agg, core, link_bw, delay) for core in cores]
        # Each aggregation pair serves d_a/2 ToRs, dual-homed to both members.
        tors_per_pair = self.d_a // 2
        tor_id = 0
        for pair in range(self.num_aggs // 2):
            for _ in range(tors_per_pair):
                tor = f"tor_{tor_id}"
                self.add_node(Node(tor, NodeKind.TOR, pod=pair, index=tor_id))
                cables += [
                    (tor, aggs[2 * pair], link_bw, delay),
                    (tor, aggs[2 * pair + 1], link_bw, delay),
                ]
                for k in range(self.hosts_per_tor):
                    host = f"h_{tor_id}_{k}"
                    self.add_node(Node(host, NodeKind.HOST, pod=pair, index=k))
                    cables.append((host, tor, host_bw, delay))
                tor_id += 1
        self.add_links(cables)

    def __repr__(self) -> str:
        return f"ClosNetwork(d_i={self.d_i}, d_a={self.d_a}, hosts={len(self.hosts())})"
