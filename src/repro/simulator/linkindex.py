"""Dense integer interning of directed links.

The fluid simulator's hot loop — max-min reallocation after every flow
event — used to hash ``(str, str)`` link tuples on every call. A
:class:`LinkIndex` interns each directed link to a dense integer id
exactly once per :class:`~repro.simulator.network.Network`, so all
per-link quantities (capacity, delay, failure state, flow counters,
utilization) become numpy arrays indexed by link id and every hot-path
computation is a vectorized gather/scatter instead of a dict walk.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import SimulationError

#: A directed link identifier (u, v) — re-exported by :mod:`maxmin`.
LinkId = Tuple[str, str]


class CableTable(Protocol):
    """A per-switch table listing cables in a fixed entry order
    (:class:`repro.topology.paths.UplinkTable`)."""

    def cables(self) -> Iterator[LinkId]:
        """Every cable as ``(u, v)``, in entry order."""
        ...


class LinkIndex:
    """Immutable intern table: directed link ``(u, v)`` -> dense int id.

    Built once per network from the topology's directed links; capacities
    and propagation delays ride along as arrays aligned to the ids.
    """

    __slots__ = ("ids", "links", "capacities", "delays", "switch_link_mask", "_cable_ids")

    def __init__(
        self,
        links: Sequence[LinkId],
        capacities: Iterable[float],
        delays: Iterable[float],
        switch_link_mask: Optional[np.ndarray] = None,
    ) -> None:
        self.links: List[LinkId] = list(links)
        self.ids: Dict[LinkId, int] = {link: i for i, link in enumerate(self.links)}
        if len(self.ids) != len(self.links):
            raise SimulationError("duplicate directed link in LinkIndex")
        self.capacities = np.asarray(list(capacities), dtype=float)
        self.delays = np.asarray(list(delays), dtype=float)
        if self.capacities.shape[0] != len(self.links) or self.delays.shape[0] != len(
            self.links
        ):
            raise SimulationError("LinkIndex arrays must align with the link list")
        #: per-id bool: both endpoints are switches. ``path_state``-style
        #: queries use it to drop host access hops without re-consulting the
        #: topology per call. Indexes built without topology knowledge
        #: (direct construction in allocator tests) default to all-True.
        if switch_link_mask is None:
            switch_link_mask = np.ones(len(self.links), dtype=bool)
        self.switch_link_mask = np.asarray(switch_link_mask, dtype=bool)
        if self.switch_link_mask.shape[0] != len(self.links):
            raise SimulationError("LinkIndex arrays must align with the link list")
        self._cable_ids: Dict[CableTable, np.ndarray] = {}

    @classmethod
    def from_topology(cls, topology: Any) -> "LinkIndex":
        """Intern every directed link of a topology, in its link order.

        One pass over the cables: each emits ``(u, v)`` then ``(v, u)``,
        the order of ``topology.directed_links()``.
        """
        links: List[LinkId] = []
        caps: List[float] = []
        delays: List[float] = []
        switchy: List[bool] = []
        nodes = topology.nodes
        for cable in topology.links():
            u, v = cable.u, cable.v
            both = nodes[u].kind.is_switch and nodes[v].kind.is_switch
            links += ((u, v), (v, u))
            caps += (cable.bandwidth_bps, cable.bandwidth_bps)
            delays += (cable.delay_s, cable.delay_s)
            switchy += (both, both)
        return cls(links, caps, delays, np.asarray(switchy, dtype=bool))

    def __len__(self) -> int:
        return len(self.links)

    def __contains__(self, link: LinkId) -> bool:
        return link in self.ids

    def id_of(self, link: LinkId) -> int:
        """The dense id of one directed link; unknown links raise."""
        try:
            return self.ids[link]
        except KeyError:
            raise SimulationError(f"component uses unknown link {link}") from None

    def index_links(self, links: Iterable[LinkId]) -> np.ndarray:
        """Intern a sequence of directed links to an id array."""
        ids = self.ids
        link_list = list(links)
        try:
            return np.fromiter(
                (ids[link] for link in link_list), dtype=np.intp, count=len(link_list)
            )
        except KeyError:
            bad = next(link for link in link_list if link not in ids)
            raise SimulationError(f"component uses unknown link {bad}") from None

    def index_path(self, path: Sequence[str]) -> np.ndarray:
        """Intern the directed links of a node path to an id array."""
        return self.index_links(zip(path, path[1:]))

    def cable_ids(self, table: CableTable) -> np.ndarray:
        """``(2, n)`` ids of the ``n`` cables ``table`` lists, memoized per table.

        Row 0 holds each cable in its listed direction ``(u, v)``, row 1
        the reverse ``(v, u)``. A ToR pair's ``(paths, hops)`` link-id
        matrix is gathered from these per-switch tables instead of
        interning every hop of every path.
        """
        ids = self._cable_ids.get(table)
        if ids is None:
            cables = list(table.cables())
            ids = np.stack(
                (
                    self.index_links(cables),
                    self.index_links([(v, u) for u, v in cables]),
                )
            )
            self._cable_ids[table] = ids
        return ids

