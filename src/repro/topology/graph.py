"""Graph core: nodes, links, and the base :class:`Topology`.

Links are physical full-duplex cables; the simulator treats each direction
as an independent capacity, so :meth:`Topology.directed_links` enumerates
both ``(u, v)`` and ``(v, u)`` for every cable.

Nodes and cables are immutable records (named tuples: no per-instance
``__dict__``), and cables enter a topology through one bulk path,
:meth:`Topology.add_links`. The order nodes and cables go in is part of
the simulation's input: the cable order fixes every directed link's id,
and each node's neighbour order (cable order) fixes the order of the
equal-cost paths a scheduler picks from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import TopologyError


class NodeKind(Enum):
    """Role of a node in a multi-rooted tree datacenter topology."""

    HOST = "host"
    TOR = "tor"  # top-of-rack / access switch
    AGG = "agg"  # aggregation switch
    CORE = "core"  # core / intermediate switch

    @property
    def is_switch(self) -> bool:
        return self is not NodeKind.HOST

    @property
    def layer(self) -> int:
        """Height in the tree: hosts are 0, cores are 3."""
        return _LAYER_OF[self._value_]


#: NodeKind value -> layer.
_LAYER_OF = {"host": 0, "tor": 1, "agg": 2, "core": 3}


class Node(NamedTuple):
    """A host or switch.

    ``pod`` is ``None`` for cores and for topologies without pods; ``index``
    is the node's ordinal among same-kind nodes (within its pod when podded).
    """

    name: str
    kind: NodeKind
    pod: Optional[int] = None
    index: int = 0


class Link(NamedTuple):
    """A full-duplex cable between two nodes with per-direction bandwidth.

    ``bandwidth_bps`` applies independently to each direction. ``delay_s``
    is the one-way propagation delay (used by the reordering model).
    """

    u: str
    v: str
    bandwidth_bps: float
    delay_s: float = 0.0001  # paper: 0.1 ms per link

    def endpoints(self) -> Tuple[str, str]:
        """The (u, v) node pair this cable joins."""
        return (self.u, self.v)


#: One cable to add: ``(u, v, bandwidth_bps, delay_s)``.
CableRow = Tuple[str, str, float, float]


@dataclass
class Topology:
    """An undirected multigraph-free topology of hosts and switches."""

    nodes: Dict[str, Node] = field(default_factory=dict)
    _adj: Dict[str, List[str]] = field(default_factory=dict)
    _links: Dict[Tuple[str, str], Link] = field(default_factory=dict)
    #: kind -> node names, memoized by :meth:`nodes_of_kind` and dropped
    #: by :meth:`add_node`.
    _kind_cache: Dict[NodeKind, List[str]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Register a node; duplicate names are rejected."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self._adj[node.name] = []
        self._kind_cache.clear()

    def add_link(self, u: str, v: str, bandwidth_bps: float, delay_s: float = 0.0001) -> None:
        """Add a full-duplex cable between existing nodes ``u`` and ``v``."""
        self.add_links(((u, v, bandwidth_bps, delay_s),))

    def add_links(self, cables: Iterable[CableRow]) -> None:
        """Add full-duplex cables ``(u, v, bandwidth_bps, delay_s)``, in order.

        The one path cables enter a topology by. Each cable is checked and
        added before the next is read: a cable with an endpoint that is not
        a node, a self-loop, or a cable already present in either direction
        (earlier in the same call included) is refused. Each cable is
        stored under its sorted endpoint pair, and each endpoint's
        neighbour list grows in cable order.
        """
        nodes = self.nodes
        links = self._links
        adj = self._adj
        for u, v, bandwidth_bps, delay_s in cables:
            if u not in nodes or v not in nodes:
                missing = u if u not in nodes else v
                raise TopologyError(f"link endpoint {missing!r} is not a node")
            if u == v:
                raise TopologyError(f"self-loop on {u!r}")
            key = (u, v) if u <= v else (v, u)  # _key, inline in this loop
            if key in links:
                raise TopologyError(f"duplicate link {u!r}-{v!r}")
            links[key] = Link(key[0], key[1], bandwidth_bps, delay_s)
            adj[u].append(v)
            adj[v].append(u)

    @staticmethod
    def _key(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    # -- queries -----------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no such node {name!r}") from None

    def has_link(self, u: str, v: str) -> bool:
        """Whether a cable joins ``u`` and ``v`` (either order)."""
        return self._key(u, v) in self._links

    def link(self, u: str, v: str) -> Link:
        """The cable between ``u`` and ``v`` (either order)."""
        try:
            return self._links[self._key(u, v)]
        except KeyError:
            raise TopologyError(f"no link between {u!r} and {v!r}") from None

    def neighbors(self, name: str) -> List[str]:
        """Neighbors of ``name`` in deterministic (insertion) order."""
        if name not in self._adj:
            raise TopologyError(f"no such node {name!r}")
        return list(self._adj[name])

    def links(self) -> Iterator[Link]:
        """Every cable, once each."""
        return iter(self._links.values())

    def directed_links(self) -> Iterator[Tuple[str, str]]:
        """All (u, v) ordered pairs, one per direction per cable, in cable
        order: the cable's own ``(u, v)`` pair, then ``(v, u)``."""
        for pair in self._links:
            yield pair
            yield (pair[1], pair[0])

    def nodes_of_kind(self, kind: NodeKind) -> List[str]:
        """Names of all nodes of one kind (memoized; returns a copy)."""
        cached = self._kind_cache.get(kind)
        if cached is None:
            cached = [n.name for n in self.nodes.values() if n.kind is kind]
            self._kind_cache[kind] = cached
        return list(cached)

    def hosts(self) -> List[str]:
        """All host names."""
        return self.nodes_of_kind(NodeKind.HOST)

    def switches(self) -> List[str]:
        """All switch names (every non-host node)."""
        return [n.name for n in self.nodes.values() if n.kind.is_switch]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def path_links(self, path: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
        """The directed links traversed by a node path, validating adjacency."""
        hops = []
        for u, v in zip(path, path[1:]):
            if not self.has_link(u, v):
                raise TopologyError(f"path uses non-existent link {u!r}->{v!r}")
            hops.append((u, v))
        return tuple(hops)
