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
``state_eleph``) rather than :class:`PathState` objects: the vectorized
scheduling round consumes the arrays directly, and the ``path_states``
property materializes the object view only where callers (the scalar
reference twin, tests) actually want it. Everything per-pair and
topology-static — the computed path sequence, the link-id CSR, the size
of the switch query set — is computed once per pair in
:class:`PairPaths` and shared between monitors through the
:class:`~repro.core.registry.MonitorRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.scheduling.messages import MessageLedger, MessageSizes
from repro.simulator.network import Network
from repro.topology.multirooted import MultiRootedTopology
from repro.topology.paths import EqualCostPaths, SwitchPath
from repro.core.bonf import PathState
from repro.core.registry import MonitorRegistry


def switches_to_query(
    topology: MultiRootedTopology, src_tor: str, dst_tor: str
) -> Set[str]:
    """The switch set a monitor polls (paper §2.4.2).

    For inter-pod pairs this is the paper's four groups. For intra-pod
    pairs the equal-cost paths only cross the shared aggregation switches,
    so only the source ToR and those switches need polling.
    """
    paths = topology.equal_cost_paths(src_tor, dst_tor)
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
    of the switch query set, the link-id CSR over the *monitored* paths
    (same-ToR length-1 paths carry no switch-switch link and are
    excluded), and the distinct link ids the registry checks for change
    stamps. No path tuple is stored.
    """

    paths: EqualCostPaths
    #: ``len(switches_to_query(...))``; the poll only needs the count.
    num_query_switches: int
    #: positions (into ``paths``) that have a CSR row, ascending.
    monitored: np.ndarray
    csr_indices: np.ndarray
    csr_indptr: np.ndarray
    #: distinct link ids of the CSR, ascending.
    link_ids: np.ndarray = field(repr=False)


def index_pair_paths(network: Network, src_tor: str, dst_tor: str) -> PairPaths:
    """Build the :class:`PairPaths` description of one ToR pair.

    The link-id CSR is gathered with array operations from the per-switch
    link-id tables (:meth:`~repro.simulator.linkindex.LinkIndex.cable_ids`
    over the topology's :meth:`path_tables`); no hop is looked up by
    name.
    """
    topology = network.topology
    paths = topology.equal_cost_paths(src_tor, dst_tor)
    tables = topology.path_tables()
    link_index = network.link_index
    hops = paths.hop_links(
        link_index.cable_ids(tables.tor), link_index.cable_ids(tables.agg)
    )
    nrows, width = hops.shape
    csr_indices = hops.ravel()
    return PairPaths(
        paths=paths,
        num_query_switches=len(switches_to_query(topology, src_tor, dst_tor)),
        monitored=np.arange(nrows, dtype=np.intp),
        csr_indices=csr_indices,
        csr_indptr=np.arange(nrows + 1, dtype=np.intp) * width,
        link_ids=np.unique(csr_indices),
    )


class PathMonitor:
    """Tracks path states between one (source ToR, destination ToR) pair.

    Maintains the paper's two vectors: PV as the ``state_band`` /
    ``state_eleph`` arrays (the ``path_states`` property is the
    :class:`PathState` object view of the same data), and — via the owning
    daemon — FV, the number of elephant flows the host itself sends along
    each path. With a ``registry``, polls are answered from its per-pair
    cache; standalone monitors query the network directly.
    """

    def __init__(
        self,
        network: Network,
        src_tor: str,
        dst_tor: str,
        ledger: MessageLedger,
        message_sizes: MessageSizes = MessageSizes(),
        registry: Optional[MonitorRegistry] = None,
    ) -> None:
        self.network = network
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self.ledger = ledger
        self.message_sizes = message_sizes
        self.registry = registry
        if registry is not None:
            pair_paths = registry.register(src_tor, dst_tor)
        else:
            pair_paths = index_pair_paths(network, src_tor, dst_tor)
        self.pair_paths = pair_paths
        self.paths: EqualCostPaths = pair_paths.paths
        self.num_query_switches = pair_paths.num_query_switches
        self._monitored = pair_paths.monitored
        self._csr_indices = pair_paths.csr_indices
        self._csr_indptr = pair_paths.csr_indptr
        #: per-path bottleneck state (PV), kept as arrays for the
        #: vectorized round; zeros until the first poll, like the old
        #: ``PathState(0, 0)`` initialization.
        self.state_band = np.zeros(len(self.paths), dtype=float)
        self.state_eleph = np.zeros(len(self.paths), dtype=np.int64)
        self.queries_sent = 0
        self._released = False

    def refresh(self) -> None:
        """One polling round: query switches, assemble per-path states.

        The hot path — updates the state arrays in place and builds no
        :class:`PathState` objects. Message accounting is identical with
        and without a registry (the cache is a simulator-side
        optimization; the modelled protocol still polls every switch).
        """
        n = self.num_query_switches
        self.ledger.record("dard_query", self.message_sizes.dard_query, n)
        self.ledger.record("dard_reply", self.message_sizes.dard_reply, n)
        self.queries_sent += n
        rows = self._monitored
        if rows.size == 0:
            # Same-ToR paths have no switch-switch link to monitor.
            self.state_band.fill(np.inf)
            self.state_eleph.fill(0)
            return
        if self.registry is not None:
            band, eleph = self.registry.pair_rows(self.src_tor, self.dst_tor)
        else:
            band, eleph = self.network.batch_path_state_arrays(
                self._csr_indices, self._csr_indptr
            )
        if rows.size == self.state_band.size:
            np.copyto(self.state_band, band)
            np.copyto(self.state_eleph, eleph)
        else:
            self.state_band.fill(np.inf)
            self.state_eleph.fill(0)
            self.state_band[rows] = band
            self.state_eleph[rows] = eleph

    def query(self) -> List[PathState]:
        """:meth:`refresh`, returning the object view (tests, scalar twin)."""
        self.refresh()
        return self.path_states

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

    def release(self) -> None:
        """Drop this monitor's registry registration (daemon teardown)."""
        if self.registry is not None and not self._released:
            self._released = True
            self.registry.release(self.src_tor, self.dst_tor)

    def path_index(self, switch_path: SwitchPath) -> int:
        """Which monitored path a flow's current route corresponds to."""
        try:
            return self.paths.index(tuple(switch_path))
        except ValueError:
            raise KeyError(
                f"path {switch_path!r} is not an equal-cost path between "
                f"{self.src_tor!r} and {self.dst_tor!r}"
            ) from None
