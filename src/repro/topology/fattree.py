"""Fat-tree topology (Al-Fares et al., SIGCOMM 2008).

A ``p``-pod fat-tree built from ``p``-port switches:

* ``p`` pods, each with ``p/2`` ToR and ``p/2`` aggregation switches;
* ``(p/2)^2`` core switches; core ``(i, j)`` connects to aggregation
  switch ``i`` of every pod;
* each ToR serves ``p/2`` hosts, for ``p^3/4`` hosts total.

Any inter-pod host pair has exactly ``p^2/4`` equal-cost paths, one per
core; intra-pod pairs have ``p/2`` paths, one per aggregation switch.

Node naming: ``core_{i}_{j}``, ``agg_{pod}_{i}``, ``tor_{pod}_{i}``,
``h_{pod}_{tor}_{k}``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.common.errors import TopologyError
from repro.common.units import GBPS
from repro.topology.graph import CableRow, Node, NodeKind
from repro.topology.multirooted import MultiRootedTopology


class FatTree(MultiRootedTopology):
    """A ``p``-pod fat-tree with uniform link bandwidth (1 Gbps default)."""

    def __init__(
        self,
        p: int = 4,
        link_bandwidth_bps: float = GBPS,
        host_bandwidth_bps: float = None,
        link_delay_s: float = 0.0001,
    ) -> None:
        if p < 2 or p % 2 != 0:
            raise TopologyError(f"fat-tree pod count must be a positive even number, got {p}")
        super().__init__()
        self.p = p
        self.link_bandwidth_bps = link_bandwidth_bps
        self.host_bandwidth_bps = (
            host_bandwidth_bps if host_bandwidth_bps is not None else link_bandwidth_bps
        )
        self._build(link_delay_s)
        self.validate()

    @property
    def radix(self) -> int:
        """Switch port count (equals the pod count in a fat-tree)."""
        return self.p

    @property
    def paths_per_inter_pod_pair(self) -> int:
        return (self.p // 2) ** 2

    def _build(self, delay: float) -> None:
        half = self.p // 2
        cores = [[f"core_{i}_{j}" for j in range(half)] for i in range(half)]
        pods = [
            (
                [f"agg_{pod}_{i}" for i in range(half)],
                [f"tor_{pod}_{i}" for i in range(half)],
                [[f"h_{pod}_{t}_{k}" for k in range(half)] for t in range(half)],
            )
            for pod in range(self.p)
        ]
        for i, row in enumerate(cores):
            for j, core in enumerate(row):
                self.add_node(Node(core, NodeKind.CORE, None, i * half + j))
        for pod, (aggs, tors, racks) in enumerate(pods):
            for i in range(half):
                self.add_node(Node(aggs[i], NodeKind.AGG, pod, i))
                self.add_node(Node(tors[i], NodeKind.TOR, pod, i))
            for t, rack in enumerate(racks):
                for k, host in enumerate(rack):
                    self.add_node(Node(host, NodeKind.HOST, pod, t * half + k))
        self.add_links(self._cables(cores, pods, delay))

    def _cables(
        self,
        cores: List[List[str]],
        pods: List[Tuple[List[str], List[str], List[List[str]]]],
        delay: float,
    ) -> Iterator[CableRow]:
        """Every cable, in build order: per pod its agg-ToR then host-ToR
        cables, then each core's cable to every pod. A generator, so no
        row outlives its ``add_links`` step."""
        link_bw, host_bw = self.link_bandwidth_bps, self.host_bandwidth_bps
        for aggs, tors, racks in pods:
            for agg in aggs:
                for tor in tors:
                    yield (agg, tor, link_bw, delay)
            for tor, rack in zip(tors, racks):
                for host in rack:
                    yield (host, tor, host_bw, delay)
        for i, row in enumerate(cores):
            for core in row:
                for aggs, _, _ in pods:
                    yield (core, aggs[i], link_bw, delay)

    def __repr__(self) -> str:
        return f"FatTree(p={self.p}, hosts={len(self.hosts())})"
