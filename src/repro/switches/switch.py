"""Switches and the fabric-wide forwarding plane.

:class:`SwitchFabric` builds one :class:`Switch` per switch node, installs
the static downhill/uphill tables from a :class:`HierarchicalAddressing`
(this is the one-time NOX initialization of the prototype, §3.1), and can
trace a packet hop by hop from source host to destination host — the ground
truth the address codec is validated against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import RoutingError
from repro.topology.graph import NodeKind
from repro.topology.multirooted import MultiRootedTopology
from repro.addressing.hierarchy import HierarchicalAddressing
from repro.addressing.prefix import Prefix
from repro.switches.flowtable import FlowTable


class Switch:
    """One switch: a port map plus static downhill and uphill LPM tables."""

    def __init__(self, name: str, neighbors: List[str]) -> None:
        self.name = name
        #: port number -> neighbor, 1-based in deterministic neighbor order.
        self.ports: Dict[int, str] = {i + 1: n for i, n in enumerate(neighbors)}
        self.port_of: Dict[str, int] = {n: p for p, n in self.ports.items()}
        self.downhill = FlowTable()
        self.uphill = FlowTable()

    def forward(self, src_addr: int, dst_addr: int) -> str:
        """Next-hop neighbor for a packet, per the downhill-uphill rule.

        The destination address is looked up in the downhill table first;
        on a miss, the source address is looked up in the uphill table.
        """
        port = self.downhill.lookup(dst_addr)
        if port is None:
            port = self.uphill.lookup(src_addr)
        if port is None:
            raise RoutingError(
                f"switch {self.name!r} has no route for src={src_addr} dst={dst_addr}"
            )
        return self.ports[port]

    def merged_routing_table(self) -> FlowTable:
        """The single ordinary destination-only table (paper Table 3).

        Valid for fat-trees, where picking a core uniquely determines both
        path segments, so destination-only longest-prefix matching suffices.
        """
        merged = FlowTable()
        for entry in self.downhill.entries():
            merged.add(entry.prefix, entry.port)
        for entry in self.uphill.entries():
            merged.add(entry.prefix, entry.port)
        return merged


class SwitchFabric:
    """Every switch in the topology with tables installed once, statically."""

    def __init__(self, addressing: HierarchicalAddressing) -> None:
        self.addressing = addressing
        self.topology: MultiRootedTopology = addressing.topology
        self.switches: Dict[str, Switch] = {}
        for name in self.topology.switches():
            neighbors = sorted(self.topology.neighbors(name))
            self.switches[name] = Switch(name, neighbors)
        self._install_tables()

    def _install_tables(self) -> None:
        topo = self.topology
        addressing = self.addressing
        for core, agg, tor in topo.downhill_chains():
            core_sw = self.switches[core]
            agg_sw = self.switches[agg]
            tor_sw = self.switches[tor]
            # Core: the prefix it allocated to each subtree points down.
            core_sw.downhill.add(addressing.agg_prefix(core, agg), core_sw.port_of[agg])
            # Aggregation: chain prefixes point down to ToRs; the core's own
            # prefix points up (cores have no uphill table, §2.3).
            agg_sw.downhill.add(addressing.chain_prefix((core, agg, tor)), agg_sw.port_of[tor])
            agg_sw.uphill.add(addressing.core_prefix(core), agg_sw.port_of[core])
            # ToR: host addresses point down; the chain prefix points up to
            # the aggregation switch that allocated it.
            tor_sw.uphill.add(addressing.chain_prefix((core, agg, tor)), tor_sw.port_of[agg])
            for host in topo.hosts_of_tor(tor):
                addr = addressing.address_of(host, (core, agg, tor))
                tor_sw.downhill.add(Prefix(addr, 32), tor_sw.port_of[host])

    def switch(self, name: str) -> Switch:
        """Look up one switch by name."""
        try:
            return self.switches[name]
        except KeyError:
            raise RoutingError(f"no such switch {name!r}") from None

    def forward_trace(
        self, src_host: str, src_addr: int, dst_addr: int, max_hops: int = 16
    ) -> Tuple[str, ...]:
        """Forward a packet hop by hop; returns the full node path.

        Starts at ``src_host`` (which hands the packet to its ToR) and runs
        the per-switch :meth:`Switch.forward` rule until a host is reached.
        Raises :class:`RoutingError` on a forwarding loop or table miss.
        """
        path = [src_host]
        current = self.topology.tor_of(src_host)
        hops = 0
        while True:
            path.append(current)
            node = self.topology.node(current)
            if node.kind is NodeKind.HOST:
                return tuple(path)
            next_hop = self.switches[current].forward(src_addr, dst_addr)
            hops += 1
            if hops > max_hops:
                raise RoutingError(
                    f"forwarding loop for src={src_addr} dst={dst_addr}: {path}"
                )
            current = next_hop

    def num_table_entries(self) -> int:
        """Total rules installed fabric-wide (a scalability statistic)."""
        return sum(len(sw.downhill) + len(sw.uphill) for sw in self.switches.values())
