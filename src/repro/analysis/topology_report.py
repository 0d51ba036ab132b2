"""Structural analysis of a multi-rooted tree topology.

Computes the figures of merit the datacenter-network literature quotes:
bisection bandwidth (and whether the fabric is rearrangeably non-blocking,
i.e. oversubscription 1:1), per-layer oversubscription, and equal-cost
path diversity between ToR pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.graph import NodeKind
from repro.topology.multirooted import MultiRootedTopology


@dataclass(frozen=True)
class TopologyReport:
    """Summary statistics of one topology instance."""

    num_hosts: int
    num_switches: int
    num_links: int
    host_capacity_bps: float
    #: aggregate capacity of the ToR->agg layer (one direction).
    tor_uplink_capacity_bps: float
    #: aggregate capacity of the agg->core layer (one direction).
    core_layer_capacity_bps: float
    #: min over layers of layer capacity / host capacity, times half the
    #: host capacity: the fabric's worst-case bisection bandwidth.
    bisection_bandwidth_bps: float
    access_oversubscription: float
    aggregation_oversubscription: float
    #: equal-cost path counts: ToR-pair path diversity.
    min_paths_inter_pod: int
    max_paths_inter_pod: int

    @property
    def full_bisection(self) -> bool:
        """True when the fabric can carry any half-half traffic split."""
        return (
            self.access_oversubscription <= 1.0 + 1e-9
            and self.aggregation_oversubscription <= 1.0 + 1e-9
        )

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"hosts={self.num_hosts} switches={self.num_switches} links={self.num_links}",
            f"host capacity      : {self.host_capacity_bps / 1e9:.1f} Gbps",
            f"ToR uplink layer   : {self.tor_uplink_capacity_bps / 1e9:.1f} Gbps "
            f"(access oversub {self.access_oversubscription:.2f}:1)",
            f"core layer         : {self.core_layer_capacity_bps / 1e9:.1f} Gbps "
            f"(aggregation oversub {self.aggregation_oversubscription:.2f}:1)",
            f"bisection bandwidth: {self.bisection_bandwidth_bps / 1e9:.1f} Gbps "
            f"({'full' if self.full_bisection else 'oversubscribed'})",
            f"inter-pod path diversity: {self.min_paths_inter_pod}"
            + (
                f"-{self.max_paths_inter_pod}"
                if self.max_paths_inter_pod != self.min_paths_inter_pod
                else ""
            ),
        ]
        return "\n".join(lines)


def _directed_layer_capacity(topo: MultiRootedTopology, low: NodeKind, high: NodeKind) -> float:
    total = 0.0
    for link in topo.links():
        kinds = {topo.node(link.u).kind, topo.node(link.v).kind}
        if kinds == {low, high}:
            total += link.bandwidth_bps
    return total


def analyze_topology(topo: MultiRootedTopology) -> TopologyReport:
    """Compute a :class:`TopologyReport` for any multi-rooted tree."""
    host_capacity = _directed_layer_capacity(topo, NodeKind.HOST, NodeKind.TOR)
    tor_uplinks = _directed_layer_capacity(topo, NodeKind.TOR, NodeKind.AGG)
    core_layer = _directed_layer_capacity(topo, NodeKind.AGG, NodeKind.CORE)
    access_over = host_capacity / tor_uplinks if tor_uplinks else float("inf")
    # Aggregation oversubscription: ToR-facing over core-facing capacity.
    agg_over = tor_uplinks / core_layer if core_layer else float("inf")
    # Bisection: half the hosts talk to the other half; the tightest layer
    # (relative to host demand) bounds it.
    limiting = min(host_capacity, tor_uplinks, core_layer)
    bisection = limiting / 2.0

    # Path diversity over a sample of inter-pod ToR pairs (all pairs on
    # small fabrics; capped for big ones).
    tors = sorted(topo.tors())
    counts = []
    budget = 200
    for i, src in enumerate(tors):
        for dst in tors[i + 1:]:
            if topo.pod_of(src) == topo.pod_of(dst):
                continue
            counts.append(len(topo.equal_cost_paths(src, dst)))
            budget -= 1
            if budget == 0:
                break
        if budget == 0:
            break
    if not counts:  # single-pod topology: fall back to intra-pod pairs
        counts = [
            len(topo.equal_cost_paths(tors[0], dst)) for dst in tors[1:]
        ] or [1]

    return TopologyReport(
        num_hosts=len(topo.hosts()),
        num_switches=len(topo.switches()),
        num_links=topo.num_links,
        host_capacity_bps=host_capacity,
        tor_uplink_capacity_bps=tor_uplinks,
        core_layer_capacity_bps=core_layer,
        bisection_bandwidth_bps=bisection,
        access_oversubscription=access_over,
        aggregation_oversubscription=agg_over,
        min_paths_inter_pod=min(counts),
        max_paths_inter_pod=max(counts),
    )
