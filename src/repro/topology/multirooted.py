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
  switch path between two ToRs (the path set DARD monitors).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import TopologyError
from repro.topology.graph import NodeKind, Topology

#: A switch-level path from source ToR to destination ToR, inclusive.
SwitchPath = Tuple[str, ...]

#: A downhill chain (core, agg, tor) along which prefixes are allocated.
Chain = Tuple[str, str, str]

#: layer (hosts 0 .. cores 3) -> the node kind living there.
_KIND_AT_LAYER = {kind.layer: kind for kind in NodeKind}


class MultiRootedTopology(Topology):
    """Base class for fat-tree, Clos, and 3-tier topologies."""

    def __init__(self) -> None:
        super().__init__()
        self._paths_cache: Dict[Tuple[str, str], List[SwitchPath]] = {}
        self._tor_cache: Dict[str, str] = {}
        # Adjacency is immutable once a topology is built (failures are
        # modeled in the Network, never by graph surgery), so layer-filtered
        # neighbor lists can be memoized. The control plane asks for them
        # per scheduling round per daemon — a hot path at scale.
        self._up_cache: Dict[str, List[str]] = {}
        self._down_cache: Dict[str, List[str]] = {}

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
        return list(self._layer_neighbors(name, +1, self._up_cache))

    def down_neighbors(self, name: str) -> List[str]:
        """Neighbors one layer below ``name`` (memoized; returns a copy)."""
        return list(self._layer_neighbors(name, -1, self._down_cache))

    def _layer_neighbors(
        self, name: str, step: int, cache: Dict[str, List[str]]
    ) -> List[str]:
        """The memoized neighbor list itself; callers must not mutate it."""
        cached = cache.get(name)
        if cached is None:
            kind = _KIND_AT_LAYER.get(self.node(name).kind.layer + step)
            nodes = self.nodes
            cached = [n for n in self.neighbors(name) if nodes[n].kind is kind]
            cache[name] = cached
        return cached

    def tor_of(self, host: str) -> str:
        """The ToR switch a host hangs off (hosts are single-homed)."""
        cached = self._tor_cache.get(host)
        if cached is not None:
            return cached
        node = self.node(host)
        if node.kind is not NodeKind.HOST:
            raise TopologyError(f"{host!r} is not a host")
        ups = self.up_neighbors(host)
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

    # -- equal-cost path enumeration -------------------------------------------

    def equal_cost_paths(self, src_tor: str, dst_tor: str) -> List[SwitchPath]:
        """All loop-free up-down switch paths between two ToRs.

        * same ToR: the single trivial path ``(tor,)``;
        * same pod (a shared aggregation parent exists): one 3-hop path per
          common aggregation switch;
        * otherwise: one 5-hop path per (up-agg, core, down-agg) combination
          wired end to end.

        Results are cached; topologies are immutable once built.
        """
        for name in (src_tor, dst_tor):
            if self.node(name).kind is not NodeKind.TOR:
                raise TopologyError(f"{name!r} is not a ToR switch")
        key = (src_tor, dst_tor)
        if key in self._paths_cache:
            return self._paths_cache[key]
        paths = self._compute_paths(src_tor, dst_tor)
        self._paths_cache[key] = paths
        return paths

    def _compute_paths(self, src_tor: str, dst_tor: str) -> List[SwitchPath]:
        if src_tor == dst_tor:
            return [(src_tor,)]
        up = self._up_cache
        src_aggs = sorted(self._layer_neighbors(src_tor, +1, up))
        dst_aggs = sorted(self._layer_neighbors(dst_tor, +1, up))
        dst_set = set(dst_aggs)
        common = [a for a in src_aggs if a in dst_set]
        if common:
            return [(src_tor, agg, dst_tor) for agg in common]
        # Walk down from the destination side once: each core's aggs above
        # dst_tor, ascending — the order a sorted scan of the core's whole
        # downlink list would meet them in.
        descents: Dict[str, List[str]] = {}
        for agg_down in dst_aggs:
            for core in self._layer_neighbors(agg_down, +1, up):
                descents.setdefault(core, []).append(agg_down)
        paths: List[SwitchPath] = []
        for agg_up in src_aggs:
            for core in sorted(self._layer_neighbors(agg_up, +1, up)):
                for agg_down in descents.get(core, ()):
                    paths.append((src_tor, agg_up, core, agg_down, dst_tor))
        if not paths:
            raise TopologyError(f"no up-down path between {src_tor!r} and {dst_tor!r}")
        return paths

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

    # -- sanity ---------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants every multi-rooted tree must satisfy."""
        if not self.cores():
            raise TopologyError("topology has no core switches")
        if not self.hosts():
            raise TopologyError("topology has no hosts")
        for host in self.hosts():
            self.tor_of(host)  # raises if not single-homed
        for tor in self.tors():
            if not self.up_neighbors(tor):
                raise TopologyError(f"ToR {tor!r} has no aggregation uplink")
        for agg in self.aggs():
            if not self.up_neighbors(agg):
                raise TopologyError(f"aggregation switch {agg!r} has no core uplink")
            if not self.down_neighbors(agg):
                raise TopologyError(f"aggregation switch {agg!r} has no ToR downlink")
        for core in self.cores():
            if not self.down_neighbors(core):
                raise TopologyError(f"core {core!r} has no downlinks")
