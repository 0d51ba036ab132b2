"""Flow objects and completion records.

A :class:`Flow` transfers a fixed number of bytes between two hosts. Its
traffic is carried by one or more :class:`FlowComponent` s — (path, weight)
pairs. Single-path schedulers (ECMP, VLB, Hedera, DARD) keep exactly one
component and re-route by replacing it; TeXCP stripes a flow across several
weighted components.

The paper's elephant definition (§1) is a TCP connection lasting at least
10 seconds; flows are *promoted* to elephant status at that age by the
network, which is when DARD's detector first sees them.

Storage model (see DESIGN.md "Columnar flow state"): a :class:`Flow` is a
view of exactly one row of a :class:`~repro.simulator.flowstore.FlowStore`
for its whole life. Its hot scalar attributes — rate, remaining bytes,
retransmitted bytes, reordering fraction, elephant flag, path-switch
count, monitored path index, end time — are properties over that row, so
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
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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
    """One (path, weight) strand of a flow.

    ``path`` is the full node path, hosts included. ``weight`` scales the
    component's max-min share; weights across a flow's components need not
    sum to anything in particular — only ratios matter to the allocator.
    """

    path: Tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        # Frozen dataclass: stash the derived link tuple once via
        # object.__setattr__ — links() is called from every hot path
        # (counter updates, reallocation, invariant checks).
        object.__setattr__(self, "_links", tuple(zip(self.path, self.path[1:])))

    def links(self) -> Tuple[Tuple[str, str], ...]:
        """The directed links this component traverses (cached)."""
        return self._links


class Flow:
    """A live transfer. Mutable state is owned by the Network.

    Hot scalar attributes live in the flow's store row (see the module
    docstring); cold state — endpoints, components, the per-component
    rate list, path history, cached link-id arrays — stays on the object.
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
        if self.src != self.components[0].path[0] or self.dst != self.components[0].path[-1]:
            raise SimulationError(
                f"flow {self.flow_id} endpoints ({self.src}, {self.dst}) do not match "
                f"component path {self.components[0].path}"
            )
        #: current per-component rates (bits/s), parallel to ``components``.
        self.component_rates: List[float] = []
        #: distinct single-path routes this flow has used, in order — lets
        #: the stability analysis detect A->B->A oscillation, which the
        #: paper claims never happens ("no flow switches its paths back
        #: and forth").
        self.path_history: List[Tuple[str, ...]] = []
        #: per-component link-id lists over the owning network's
        #: LinkIndex, computed once at start/reroute and reused by every
        #: hot path (set by the Network).
        self.component_link_ids: Optional[List] = None
        #: sorted unique link ids across all components (set by the Network).
        self.unique_link_ids: Optional[object] = None
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
    def monitored_path_index(self) -> Optional[int]:
        """Which monitored equal-cost path this flow currently rides.

        An index into its (src ToR, dst ToR) monitor's path list, assigned
        by the DARD daemon at elephant promotion and on every shift, so
        the control plane's FV accounting compares integers instead of
        hashing switch-path tuples. ``None`` for mice and non-DARD flows.
        """
        index = int(self._store.monitored_path[self._row])
        return None if index < 0 else index

    @monitored_path_index.setter
    def monitored_path_index(self, value: Optional[int]) -> None:
        self._store.monitored_path[self._row] = -1 if value is None else value

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

    def switch_path(self) -> Tuple[str, ...]:
        """The single path of a single-component flow (scheduler convenience)."""
        if len(self.components) != 1:
            raise ValueError(f"flow {self.flow_id} is striped over {len(self.components)} paths")
        return self.components[0].path

    def retx_rate(self) -> float:
        """Retransmitted bytes over unique bytes (the Fig. 14 metric)."""
        if self.size_bytes <= 0:
            return 0.0
        return self.retransmitted_bytes / self.size_bytes

    def path_revisits(self) -> int:
        """How many route changes returned to a previously used path."""
        revisits = 0
        seen = set()
        for path in self.path_history:
            if path in seen:
                revisits += 1
            seen.add(path)
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
