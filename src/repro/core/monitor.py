"""On-demand path-state monitoring (paper §2.4).

A monitor tracks the BoNF of every equal-cost path between one source ToR
and one destination ToR. Instead of flooding probes along each path, it
uses *Path State Assembling*: it queries a fixed set of switches for their
per-egress-port state — (1) the source ToR, (2) the aggregation switches
above it, (3) the core switches, (4) the aggregation switches above the
destination ToR — and assembles the replies into per-path bottleneck
states. That switch set covers every equal-cost path, so the query cost is
bounded by topology size, not flow count (the crux of the Fig. 15
overhead comparison).

Monitors keep their state as two parallel arrays (``state_band``,
``state_eleph``) rather than :class:`PathState` objects: the scheduling
round consumes the arrays directly, and the ``path_states`` property
materializes the object view only where callers (the scalar reference
twin, tests) actually want it. Every poll reads the network afresh:
one :meth:`~repro.simulator.network.Network.batch_path_state_arrays`
call over the pair's dense ``(paths, hops)`` link-id matrix, with no
cache in between. Everything per-pair and topology-static — the
computed path sequence, that matrix, the size of the switch query set —
is computed once per pair in :class:`PairPaths` and shared between
monitors through the :class:`~repro.core.registry.MonitorRegistry`
every monitor registers with. Each poll books the paper's fixed query
and reply sizes (:data:`~repro.scheduling.messages.MESSAGE_SIZES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Set

import numpy as np

from repro.scheduling.messages import MESSAGE_SIZES, MessageLedger
from repro.simulator.network import Network
from repro.topology.multirooted import MultiRootedTopology
from repro.topology.paths import EqualCostPaths, SwitchPath
from repro.core.bonf import PathState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (registry imports us)
    from repro.core.registry import MonitorRegistry


def switches_to_query(topology: MultiRootedTopology, paths: EqualCostPaths) -> Set[str]:
    """The switch set a monitor of ``paths``' ToR pair polls (paper §2.4.2).

    For inter-pod pairs this is the paper's four groups. For intra-pod
    pairs the equal-cost paths only cross the shared aggregation switches,
    so only the source ToR and those switches need polling.
    """
    src_tor, dst_tor = paths.src_tor, paths.dst_tor
    if paths.hops == 4:
        switches: Set[str] = {src_tor}
        switches.update(topology.up_neighbors(src_tor))
        switches.update(topology.cores())
        switches.update(topology.up_neighbors(dst_tor))
        return switches
    switches = {src_tor}
    for path in paths:
        switches.update(path[1:-1])
    return switches


@dataclass(frozen=True)
class PairPaths:
    """Everything topology-static about one (src ToR, dst ToR) pair.

    Computed once per pair (and interned by the registry so monitor churn
    never recomputes it): the computed equal-cost path sequence, the size
    of the switch query set and the dense ``(paths, hops)`` link-id
    matrix of every path's switch-switch hops. A ToR paired with itself
    has no such hop, so its matrix is ``(0, 0)`` and a poll of it raises;
    daemons never monitor such a pair. No path tuple is stored.
    """

    paths: EqualCostPaths
    #: ``len(switches_to_query(topology, paths))``; the poll only needs the count.
    num_query_switches: int
    #: ``(paths, hops)`` link ids, row ``k`` the hops of ``paths[k]``.
    hops: np.ndarray


def index_pair_paths(network: Network, src_tor: str, dst_tor: str) -> PairPaths:
    """Build the :class:`PairPaths` description of one ToR pair.

    The link-id matrix is gathered with array operations from the
    per-switch link-id tables
    (:meth:`~repro.simulator.linkindex.LinkIndex.cable_ids` over the
    topology's :meth:`path_tables`); no hop is looked up by name.
    """
    topology = network.topology
    paths = topology.equal_cost_paths(src_tor, dst_tor)
    tables = topology.path_tables()
    link_index = network.link_index
    return PairPaths(
        paths=paths,
        num_query_switches=len(switches_to_query(topology, paths)),
        hops=paths.hop_links(
            link_index.cable_ids(tables.tor), link_index.cable_ids(tables.agg)
        ),
    )


class PathMonitor:
    """Tracks path states between one (source ToR, destination ToR) pair.

    Maintains the paper's two vectors: PV as the ``state_band`` /
    ``state_eleph`` arrays (the ``path_states`` property is the
    :class:`PathState` object view of the same data), and — via the owning
    daemon — FV, the number of elephant flows the host itself sends along
    each path. The pair's :class:`PairPaths` comes from the registry's
    intern table.
    """

    def __init__(
        self,
        src_tor: str,
        dst_tor: str,
        ledger: MessageLedger,
        registry: "MonitorRegistry",
    ) -> None:
        #: the network the registry interned the pair's link ids for.
        self.network: Network = registry.network
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self.ledger = ledger
        self.pair_paths = pair_paths = registry.register(src_tor, dst_tor)
        self.paths: EqualCostPaths = pair_paths.paths
        self.num_query_switches = pair_paths.num_query_switches
        self.hops = pair_paths.hops
        #: per-path bottleneck state (PV); zeros until the first poll,
        #: like the old ``PathState(0, 0)`` initialization.
        self.state_band = np.zeros(len(self.paths), dtype=float)
        self.state_eleph = np.zeros(len(self.paths), dtype=np.int64)

    def refresh(self) -> None:
        """One polling round: query switches, assemble per-path states.

        The hot path — replaces the state arrays with the fresh ones the
        network returns (so :meth:`note_shift` only ever edits this
        monitor's state) and builds no :class:`PathState` objects.
        """
        n = self.num_query_switches
        self.ledger.record("dard_query", MESSAGE_SIZES.dard_query, n)
        self.ledger.record("dard_reply", MESSAGE_SIZES.dard_reply, n)
        self.state_band, self.state_eleph = self.network.batch_path_state_arrays(
            self.hops
        )

    @property
    def path_states(self) -> List[PathState]:
        """PV as :class:`PathState` objects, built on demand.

        A fresh list each access — mutate the monitor through
        :meth:`note_shift` (or assign a whole new list), not by writing
        into the returned list.
        """
        return [
            PathState(bandwidth_bps=float(band), flow_numbers=int(eleph))
            for band, eleph in zip(
                self.state_band.tolist(), self.state_eleph.tolist()
            )
        ]

    @path_states.setter
    def path_states(self, states: List[PathState]) -> None:
        self.state_band = np.array(
            [state.bandwidth_bps for state in states], dtype=float
        )
        self.state_eleph = np.array(
            [state.flow_numbers for state in states], dtype=np.int64
        )

    def note_shift(self, from_index: int, to_index: int) -> None:
        """Optimistic within-round update after shifting one elephant.

        Both sides: the target path carries one more elephant (the old
        ``PathState.with_one_more_flow()`` update) *and* the vacated path
        one fewer — so later decisions in the same round see neither a
        stale-pessimistic source nor a stale-optimistic target. The next
        poll refreshes ground truth either way.
        """
        self.state_eleph[to_index] += 1
        if self.state_eleph[from_index] > 0:
            self.state_eleph[from_index] -= 1

    def path_index(self, switch_path: SwitchPath) -> int:
        """Which monitored path a flow's current route corresponds to."""
        try:
            return self.paths.index(tuple(switch_path))
        except ValueError:
            raise KeyError(
                f"path {switch_path!r} is not an equal-cost path between "
                f"{self.src_tor!r} and {self.dst_tor!r}"
            ) from None
