"""Generic multi-rooted tree structure shared by all three topology families.

A multi-rooted tree has three switch layers — ToR (edge/access),
aggregation, and core/intermediate — plus hosts. DARD's addressing treats
the topology as a forest: one tree per core, where each tree contains every
root-to-ToR *downhill chain* ``(core, agg, tor)`` that exists in the wiring.
Hosts receive one address per chain ending at their ToR, and an end-to-end
path is the concatenation of an uphill chain (reversed) and a downhill chain
through the same core.

This module provides:

* layer/pod metadata helpers,
* :meth:`MultiRootedTopology.downhill_chains` — the chain inventory the
  prefix allocator walks, and
* :meth:`MultiRootedTopology.equal_cost_paths` — every loop-free up-down
  switch path between two ToRs (the path set DARD monitors), computed
  from per-switch tables (:mod:`repro.topology.paths`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import TopologyError
from repro.topology.graph import NodeKind, Topology
from repro.topology.paths import EqualCostPaths, PathTables, SwitchPath

#: A downhill chain (core, agg, tor) along which prefixes are allocated.
Chain = Tuple[str, str, str]


class MultiRootedTopology(Topology):
    """Base class for fat-tree, Clos, and 3-tier topologies."""

    def __init__(self) -> None:
        super().__init__()
        self._path_tables: Optional[PathTables] = None
        self._tor_cache: Dict[str, str] = {}
        # Adjacency is immutable once a topology is built (failures are
        # modeled in the Network, never by graph surgery), so layer-filtered
        # neighbor tuples can be memoized, for every node in one walk
        # (_fill_layer_memos, which validate() runs). The control plane asks
        # for them per scheduling round per daemon — a hot path at scale.
        # Tuples of names drop out of the garbage collector's tracking,
        # lists would not (one per host and switch).
        self._up_cache: Dict[str, Tuple[str, ...]] = {}
        self._down_cache: Dict[str, Tuple[str, ...]] = {}

    # -- layer helpers -------------------------------------------------------

    def cores(self) -> List[str]:
        """All core/intermediate switch names."""
        return self.nodes_of_kind(NodeKind.CORE)

    def aggs(self) -> List[str]:
        """All aggregation switch names."""
        return self.nodes_of_kind(NodeKind.AGG)

    def tors(self) -> List[str]:
        """All ToR/access switch names."""
        return self.nodes_of_kind(NodeKind.TOR)

    def up_neighbors(self, name: str) -> List[str]:
        """Neighbors one layer above ``name`` (memoized; returns a copy)."""
        return list(self._layer_neighbors(name, self._up_cache))

    def down_neighbors(self, name: str) -> List[str]:
        """Neighbors one layer below ``name`` (memoized; returns a copy)."""
        return list(self._layer_neighbors(name, self._down_cache))

    def _layer_neighbors(self, name: str, cache: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """The memoized neighbor tuple itself (``cache`` is the up or the
        down memo)."""
        cached = cache.get(name)
        if cached is None:
            self.node(name)  # raises for a name that is not a node
            self._fill_layer_memos()
            cached = cache[name]
        return cached

    def _fill_layer_memos(self) -> None:
        """Fill the up/down neighbor memos for every node in one walk over
        the adjacency: each node's neighbors one layer above and one layer
        below, in neighbor order."""
        adj = self._adj
        up = self._up_cache
        down = self._down_cache
        height = {name: node.kind.layer for name, node in self.nodes.items()}
        for name, layer in height.items():
            above: List[str] = []
            below: List[str] = []
            for neighbor in adj[name]:
                step = height[neighbor] - layer
                if step == 1:
                    above.append(neighbor)
                elif step == -1:
                    below.append(neighbor)
            up[name] = tuple(above)
            down[name] = tuple(below)

    def tor_of(self, host: str) -> str:
        """The ToR switch a host hangs off (hosts are single-homed)."""
        cached = self._tor_cache.get(host)
        if cached is not None:
            return cached
        node = self.node(host)
        if node.kind is not NodeKind.HOST:
            raise TopologyError(f"{host!r} is not a host")
        ups = self._layer_neighbors(host, self._up_cache)
        if len(ups) != 1:
            raise TopologyError(f"host {host!r} has {len(ups)} ToR uplinks, expected 1")
        self._tor_cache[host] = ups[0]
        return ups[0]

    def hosts_of_tor(self, tor: str) -> List[str]:
        """The hosts hanging off one ToR switch."""
        if self.node(tor).kind is not NodeKind.TOR:
            raise TopologyError(f"{tor!r} is not a ToR switch")
        return self.down_neighbors(tor)

    def pod_of(self, name: str) -> Optional[int]:
        """The node's pod index (None for cores)."""
        return self.node(name).pod

    # -- chains (addressing substrate) ---------------------------------------

    def downhill_chains(self) -> Iterator[Chain]:
        """Every (core, agg, tor) downhill chain, in deterministic order.

        One chain exists per way of descending from a core to a ToR. In a
        fat-tree each core reaches each ToR through exactly one aggregation
        switch; in Clos/3-tier a ToR may be dual-homed, producing one chain
        per parent aggregation switch per core.
        """
        for core in sorted(self.cores()):
            for agg in sorted(self.down_neighbors(core)):
                for tor in sorted(self.down_neighbors(agg)):
                    yield (core, agg, tor)

    def chains_to_tor(self, tor: str) -> List[Chain]:
        """All downhill chains terminating at ``tor``."""
        chains = []
        for agg in sorted(self.up_neighbors(tor)):
            for core in sorted(self.up_neighbors(agg)):
                chains.append((core, agg, tor))
        return chains

    # -- equal-cost paths ------------------------------------------------------

    def path_tables(self) -> PathTables:
        """The per-switch tables every path set is computed from.

        Built once, on first use: one entry per ToR-agg and agg-core
        cable (see :mod:`repro.topology.paths`).
        """
        if self._path_tables is None:
            up = self._up_cache
            self._path_tables = PathTables(
                sorted(self.tors()),
                sorted(self.aggs()),
                sorted(self.cores()),
                lambda name: self._layer_neighbors(name, up),
            )
        return self._path_tables

    def equal_cost_paths(self, src_tor: str, dst_tor: str) -> EqualCostPaths:
        """All loop-free up-down switch paths between two ToRs.

        * same ToR: the single trivial path ``(tor,)``;
        * same pod (a shared aggregation parent exists): one 3-hop path per
          common aggregation switch;
        * otherwise: one 5-hop path per (up-agg, core, down-agg) combination
          wired end to end.

        The result is a read-only sequence computed from per-switch tables
        on each call; nothing is kept per ToR pair. A name that is not a
        ToR raises :class:`TopologyError`.
        """
        return self.path_tables().paths(src_tor, dst_tor)

    def host_path(self, src_host: str, dst_host: str, switch_path: SwitchPath) -> Tuple[str, ...]:
        """Expand a ToR-to-ToR switch path into the full host-to-host path."""
        if src_host == dst_host:
            raise TopologyError("source and destination host are identical")
        if switch_path[0] != self.tor_of(src_host):
            raise TopologyError(
                f"path starts at {switch_path[0]!r} but {src_host!r} is on {self.tor_of(src_host)!r}"
            )
        if switch_path[-1] != self.tor_of(dst_host):
            raise TopologyError(
                f"path ends at {switch_path[-1]!r} but {dst_host!r} is on {self.tor_of(dst_host)!r}"
            )
        return (src_host,) + tuple(switch_path) + (dst_host,)

    def host_path_at(self, src_host: str, dst_host: str, index: int) -> Tuple[str, ...]:
        """The host path of the hosts' ``index``-th equal-cost path: node
        names for a flow component, which names its route by index."""
        if src_host == dst_host:
            raise TopologyError("source and destination host are identical")
        paths = self.path_tables().paths(self.tor_of(src_host), self.tor_of(dst_host))
        return (src_host,) + paths[index] + (dst_host,)

    # -- sanity ---------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants every multi-rooted tree must satisfy.

        One walk over the adjacency fills the up/down neighbor memos; the
        checks then read them, in a fixed order: no cores, no hosts, then
        per host (filling the host -> ToR memo), ToR, aggregation switch
        and core, each in node order.
        """
        self._fill_layer_memos()
        cores = self.cores()
        hosts = self.hosts()
        if not cores:
            raise TopologyError("topology has no core switches")
        if not hosts:
            raise TopologyError("topology has no hosts")
        tor_of = self.tor_of
        for host in hosts:
            tor_of(host)  # raises if not single-homed
        up = self._up_cache
        down = self._down_cache
        for tor in self.tors():
            if not up[tor]:
                raise TopologyError(f"ToR {tor!r} has no aggregation uplink")
        for agg in self.aggs():
            if not up[agg]:
                raise TopologyError(f"aggregation switch {agg!r} has no core uplink")
            if not down[agg]:
                raise TopologyError(f"aggregation switch {agg!r} has no ToR downlink")
        for core in cores:
            if not down[core]:
                raise TopologyError(f"core {core!r} has no downlinks")
