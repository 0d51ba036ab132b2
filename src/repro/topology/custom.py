"""Build a custom multi-rooted tree from a declarative specification.

The three built-in families cover the paper; downstream users often need
"my datacenter, except...". A :class:`TopologySpec` declares layer members
and wiring explicitly, producing a validated
:class:`~repro.topology.multirooted.MultiRootedTopology` that works with
the full stack — addressing, switch tables, DARD, every scheduler.

Example
-------
>>> from repro.topology.custom import TopologySpec, build_custom
>>> spec = TopologySpec(
...     cores=["c0"],
...     aggs={"a0": 0, "a1": 0},
...     tors={"t0": 0, "t1": 0},
...     hosts={"h0": "t0", "h1": "t1"},
...     core_agg_links=[("c0", "a0"), ("c0", "a1")],
...     agg_tor_links=[("a0", "t0"), ("a0", "t1"), ("a1", "t0"), ("a1", "t1")],
... )
>>> topo = build_custom(spec)
>>> len(topo.equal_cost_paths("t0", "t1"))
2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import TopologyError
from repro.common.units import GBPS
from repro.topology.graph import CableRow, Node, NodeKind
from repro.topology.multirooted import MultiRootedTopology


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a multi-rooted tree.

    * ``cores`` — core/intermediate switch names;
    * ``aggs`` / ``tors`` — name -> pod index;
    * ``hosts`` — host name -> its ToR;
    * ``core_agg_links`` / ``agg_tor_links`` — explicit wiring;
    * bandwidths default to 1 Gbps everywhere, overridable per layer or
      per individual cable via ``link_overrides``.
    """

    cores: List[str]
    aggs: Dict[str, int]
    tors: Dict[str, int]
    hosts: Dict[str, str]
    core_agg_links: List[Tuple[str, str]]
    agg_tor_links: List[Tuple[str, str]]
    link_bandwidth_bps: float = GBPS
    host_bandwidth_bps: Optional[float] = None
    link_delay_s: float = 0.0001
    #: (u, v) -> bandwidth overriding the layer default for that cable.
    link_overrides: Dict[Tuple[str, str], float] = field(default_factory=dict)


class CustomTopology(MultiRootedTopology):
    """A multi-rooted tree built from a :class:`TopologySpec`."""

    def __init__(self, spec: TopologySpec) -> None:
        super().__init__()
        self.spec = spec
        self._build()
        self.validate()

    def _bandwidth(self, u: str, v: str, default: float) -> float:
        overrides = self.spec.link_overrides
        return overrides.get((u, v), overrides.get((v, u), default))

    def _build(self) -> None:
        spec = self.spec
        names = list(spec.cores) + list(spec.aggs) + list(spec.tors) + list(spec.hosts)
        if len(names) != len(set(names)):
            raise TopologyError("spec contains duplicate node names")
        for index, core in enumerate(spec.cores):
            self.add_node(Node(core, NodeKind.CORE, pod=None, index=index))
        for index, (agg, pod) in enumerate(spec.aggs.items()):
            self.add_node(Node(agg, NodeKind.AGG, pod=pod, index=index))
        for index, (tor, pod) in enumerate(spec.tors.items()):
            self.add_node(Node(tor, NodeKind.TOR, pod=pod, index=index))
        for index, (host, tor) in enumerate(spec.hosts.items()):
            if tor not in spec.tors:
                raise TopologyError(f"host {host!r} names unknown ToR {tor!r}")
            pod = spec.tors[tor]
            self.add_node(Node(host, NodeKind.HOST, pod=pod, index=index))

        self.add_links(self._cables())

    def _cables(self) -> Iterator[CableRow]:
        """Every cable the spec names, layer by layer, each checked against
        the spec as it is read."""
        spec = self.spec
        delay = spec.link_delay_s
        for core, agg in spec.core_agg_links:
            if core not in spec.cores or agg not in spec.aggs:
                raise TopologyError(f"core-agg link ({core!r}, {agg!r}) names unknown nodes")
            yield core, agg, self._bandwidth(core, agg, spec.link_bandwidth_bps), delay
        for agg, tor in spec.agg_tor_links:
            if agg not in spec.aggs or tor not in spec.tors:
                raise TopologyError(f"agg-tor link ({agg!r}, {tor!r}) names unknown nodes")
            yield agg, tor, self._bandwidth(agg, tor, spec.link_bandwidth_bps), delay
        host_bw = (
            spec.host_bandwidth_bps
            if spec.host_bandwidth_bps is not None
            else spec.link_bandwidth_bps
        )
        for host, tor in spec.hosts.items():
            yield host, tor, self._bandwidth(host, tor, host_bw), delay

    def __repr__(self) -> str:
        return (
            f"CustomTopology(cores={len(self.spec.cores)}, "
            f"tors={len(self.spec.tors)}, hosts={len(self.spec.hosts)})"
        )


def build_custom(spec: TopologySpec) -> CustomTopology:
    """Construct and validate a custom topology."""
    return CustomTopology(spec)
