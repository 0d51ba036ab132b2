"""Flow objects and completion records.

A :class:`Flow` transfers a fixed number of bytes between two hosts. Its
traffic is carried by one or more :class:`FlowComponent` s — (path index,
weight, link-id row) triples. The index names one of the hosts' ToR
pair's equal-cost paths, as DARD's address pair does (§2.3); the row is
that path's link ids, which the network reads on every refill. No
component holds a node name:
:meth:`~repro.topology.multirooted.MultiRootedTopology.host_path_at`
builds the node path from the index where something reads it.
Single-path schedulers (ECMP, VLB, Hedera, DARD) keep exactly one
component and re-route by replacing it; TeXCP stripes a flow across
several weighted components.

The paper's elephant definition (§1) is a TCP connection lasting at least
10 seconds; flows are *promoted* to elephant status at that age by the
network, which is when DARD's detector first sees them.

Storage model (see DESIGN.md "Columnar flow state"): a :class:`Flow` is a
view of exactly one row of a :class:`~repro.simulator.flowstore.FlowStore`
for its whole life. Its hot scalar attributes — rate, remaining bytes,
retransmitted bytes, reordering fraction, elephant flag, path-switch
count, end time — are properties over that row, so
the network's vectorized settle/ETA/completion passes and the scalar
property accesses always see the same state. The constructor acquires the
row (a network passes its own store, a standalone flow a ``FlowStore()``);
at completion the store hands the flow a one-row copy of its final state,
so records, listeners and any held references keep reading that state
after the row is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the store names Flow)
    from repro.simulator.flowstore import FlowStore

#: Default elephant promotion age (seconds), per the paper.
ELEPHANT_AGE_S = 10.0

#: Bytes retransmitted per path switch: one congestion window of in-flight
#: data is lost when the path changes mid-connection (~64 KB receive window).
PATH_SWITCH_RETX_BYTES = 64_000


@dataclass(frozen=True)
class FlowComponent:
    """One strand of a flow: a path index, a weight and the path's link ids.

    ``index`` is a position, in base order, in the equal-cost paths of
    the flow's (source ToR, destination ToR) pair. ``link_ids`` is that
    path's row of directed-link ids: the source access link, the switch
    hops, then the destination access link, in path order; build it with
    :meth:`repro.simulator.network.Network.component`. ``weight`` scales
    the component's max-min share; weights across a flow's components
    need not sum to anything in particular — only ratios matter to the
    allocator.
    """

    index: int
    link_ids: List[int]
    weight: float = 1.0


class Flow:
    """A live transfer. Mutable state is owned by the Network.

    Hot scalar attributes live in the flow's store row (see the module
    docstring); cold state — endpoints, components, the per-component
    rate list, path history, the unique link-id array — stays on the
    object.
    """

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        size_bytes: float,
        start_time: float,
        components: Sequence[FlowComponent],
        store: "FlowStore",
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_time = start_time
        self.components: List[FlowComponent] = list(components)
        if not self.components:
            raise SimulationError(f"flow {self.flow_id} has no components")
        #: current per-component rates (bits/s), parallel to ``components``.
        self.component_rates: List[float] = []
        #: the path indices of the single-path routes this flow has used,
        #: in order — lets the stability analysis detect A->B->A
        #: oscillation, which the paper claims never happens ("no flow
        #: switches its paths back and forth").
        self.path_history: List[int] = []
        #: sorted unique link ids across all components (set by the Network).
        self.unique_link_ids: List[int] = []
        #: the store and row holding the hot attributes. The store
        #: re-points both when it moves the row and when the flow finishes.
        self._store = store
        self._row = store.acquire(self)
        store.remaining_bytes[self._row] = float(size_bytes)

    def __repr__(self) -> str:
        return (
            f"Flow(flow_id={self.flow_id}, src={self.src!r}, dst={self.dst!r}, "
            f"size_bytes={self.size_bytes}, remaining={self.remaining_bytes}, "
            f"active={self.active})"
        )

    @property
    def store_row(self) -> int:
        """The flow's row in its store (row 0 of its copy once finished)."""
        return self._row

    # -- store-backed hot attributes ---------------------------------------------

    @property
    def remaining_bytes(self) -> float:
        return float(self._store.remaining_bytes[self._row])

    @remaining_bytes.setter
    def remaining_bytes(self, value: float) -> None:
        self._store.remaining_bytes[self._row] = value

    @property
    def retransmitted_bytes(self) -> float:
        return float(self._store.retransmitted_bytes[self._row])

    @retransmitted_bytes.setter
    def retransmitted_bytes(self, value: float) -> None:
        self._store.retransmitted_bytes[self._row] = value

    @property
    def reorder_retx_fraction(self) -> float:
        """Reordering-induced retransmission fraction of current goodput.

        Recomputed whenever components change; 0 for single-path flows.
        """
        return float(self._store.retx_fraction[self._row])

    @reorder_retx_fraction.setter
    def reorder_retx_fraction(self, value: float) -> None:
        self._store.retx_fraction[self._row] = value

    @property
    def is_elephant(self) -> bool:
        return bool(self._store.elephant[self._row])

    @is_elephant.setter
    def is_elephant(self, value: bool) -> None:
        self._store.elephant[self._row] = value

    @property
    def path_switches(self) -> int:
        return int(self._store.path_switches[self._row])

    @path_switches.setter
    def path_switches(self, value: int) -> None:
        self._store.path_switches[self._row] = value

    @property
    def end_time(self) -> Optional[float]:
        end = float(self._store.end_time[self._row])
        return None if math.isnan(end) else end

    @end_time.setter
    def end_time(self, value: Optional[float]) -> None:
        self._store.end_time[self._row] = math.nan if value is None else value

    # -- derived views ------------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Aggregate allocated rate across components.

        The network's refills keep the rate column bit-equal to
        ``sum(component_rates)``; ``check_invariants`` audits that.
        """
        return float(self._store.rate_bps[self._row])

    @property
    def goodput_bps(self) -> float:
        """Rate net of reordering-induced retransmissions.

        The completion-scheduling rate: remaining bytes drain at this
        speed, the product the network's ETA pass takes for every row.
        """
        return self.rate_bps * (1.0 - self.reorder_retx_fraction)

    @property
    def active(self) -> bool:
        return math.isnan(self._store.end_time[self._row])

    def age(self, now: float) -> float:
        """Seconds since the flow started."""
        return now - self.start_time

    def retx_rate(self) -> float:
        """Retransmitted bytes over unique bytes (the Fig. 14 metric)."""
        if self.size_bytes <= 0:
            return 0.0
        return self.retransmitted_bytes / self.size_bytes

    def path_revisits(self) -> int:
        """How many route changes returned to a previously used path."""
        revisits = 0
        seen = set()
        for index in self.path_history:
            if index in seen:
                revisits += 1
            seen.add(index)
        return revisits


@dataclass(frozen=True)
class FlowRecord:
    """Immutable record of a finished flow, kept for metrics."""

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    start_time: float
    end_time: float
    path_switches: int
    path_revisits: int
    retransmitted_bytes: float
    was_elephant: bool

    @property
    def fct(self) -> float:
        """Flow completion time (the paper's "file transfer time")."""
        return self.end_time - self.start_time

    @property
    def retx_rate(self) -> float:
        return self.retransmitted_bytes / self.size_bytes if self.size_bytes else 0.0
