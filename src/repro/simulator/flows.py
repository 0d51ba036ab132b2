"""Flow objects and completion records.

A :class:`Flow` transfers a fixed number of bytes between two hosts. Its
traffic is carried by one or more :class:`FlowComponent` s — (path, weight)
pairs. Single-path schedulers (ECMP, VLB, Hedera, DARD) keep exactly one
component and re-route by replacing it; TeXCP stripes a flow across several
weighted components.

The paper's elephant definition (§1) is a TCP connection lasting at least
10 seconds; flows are *promoted* to elephant status at that age by the
network, which is when DARD's detector first sees them.

Storage model (see DESIGN.md "Columnar flow state"): a flow owned by a
:class:`~repro.simulator.network.Network` is **bound** to a row of the
network's :class:`~repro.simulator.flowstore.FlowStore`, and its hot
scalar attributes — remaining bytes, retransmitted bytes, reordering
fraction, elephant flag, path-switch count, monitored path index, end
time — are properties reading and writing the store columns, so the
network's vectorized settle/ETA/completion passes and the scalar property
accesses always see the same state. A flow constructed standalone (tests,
ad-hoc tooling) is **unbound** and the same properties fall back to plain
per-object shadow attributes; :meth:`Flow.unbind_store` snapshots the
columns back into those shadows at completion, so records, listeners, and
any held references stay valid after the row is revived for another flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network owns both)
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

    Hot scalar attributes live in the bound :class:`FlowStore` row (see
    the module docstring); cold state — endpoints, components, the
    per-component rate list, path history, cached link-id arrays — stays
    on the object.
    """

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        size_bytes: float,
        start_time: float,
        components: Sequence[FlowComponent],
        component_rates: Optional[List[float]] = None,
        is_elephant: bool = False,
        path_switches: int = 0,
        path_history: Optional[List[Tuple[str, ...]]] = None,
        retransmitted_bytes: float = 0.0,
        reorder_retx_fraction: float = 0.0,
        end_time: Optional[float] = None,
        component_link_ids: Optional[List] = None,
        unique_link_ids: Optional[object] = None,
        monitored_path_index: Optional[int] = None,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_time = start_time
        self.components: List[FlowComponent] = list(components)
        #: current per-component rates (bits/s), parallel to ``components``.
        self.component_rates: List[float] = (
            list(component_rates) if component_rates is not None else []
        )
        #: distinct single-path routes this flow has used, in order — lets
        #: the stability analysis detect A->B->A oscillation, which the
        #: paper claims never happens ("no flow switches its paths back
        #: and forth").
        self.path_history: List[Tuple[str, ...]] = (
            list(path_history) if path_history is not None else []
        )
        #: per-component link-id lists over the owning network's
        #: LinkIndex, computed once at start/reroute and reused by every
        #: hot path (set by the Network; ``None`` for flows never attached
        #: to one).
        self.component_link_ids: Optional[List] = component_link_ids
        #: sorted unique link ids across all components (set by the Network).
        self.unique_link_ids: Optional[object] = unique_link_ids
        # Unbound shadows of the store-backed hot attributes.
        self._store: Optional["FlowStore"] = None
        self._row = -1
        self._remaining_bytes = float(size_bytes)
        self._retransmitted_bytes = retransmitted_bytes
        self._reorder_retx_fraction = reorder_retx_fraction
        self._is_elephant = is_elephant
        self._path_switches = path_switches
        self._monitored_path_index = monitored_path_index
        self._end_time = end_time
        if not self.components:
            raise SimulationError(f"flow {self.flow_id} has no components")
        if self.src != self.components[0].path[0] or self.dst != self.components[0].path[-1]:
            raise SimulationError(
                f"flow {self.flow_id} endpoints ({self.src}, {self.dst}) do not match "
                f"component path {self.components[0].path}"
            )

    def __repr__(self) -> str:
        return (
            f"Flow(flow_id={self.flow_id}, src={self.src!r}, dst={self.dst!r}, "
            f"size_bytes={self.size_bytes}, remaining={self.remaining_bytes}, "
            f"active={self.active})"
        )

    # -- store binding ----------------------------------------------------------

    @property
    def store_row(self) -> int:
        """The bound store row index, or ``-1`` when unbound."""
        return self._row

    def bind_store(self, store: "FlowStore", row: int) -> None:
        """Adopt an acquired store row: push the current state into it.

        From here until :meth:`unbind_store`, the hot attributes read and
        write the store columns.
        """
        store.flow_id[row] = self.flow_id
        store.rate_bps[row] = sum(self.component_rates)
        store.retx_fraction[row] = self._reorder_retx_fraction
        store.goodput_factor[row] = 1.0 - self._reorder_retx_fraction
        store.remaining_bytes[row] = self._remaining_bytes
        store.start_time[row] = self.start_time
        store.end_time[row] = math.nan if self._end_time is None else self._end_time
        store.retransmitted_bytes[row] = self._retransmitted_bytes
        store.elephant[row] = self._is_elephant
        store.monitored_path[row] = (
            -1 if self._monitored_path_index is None else self._monitored_path_index
        )
        store.path_switches[row] = self._path_switches
        self._store = store
        self._row = row

    def unbind_store(self) -> None:
        """Snapshot the columns into local shadows and detach from the row.

        Called at completion *before* the network releases the row, so a
        finished flow held by a listener (or a test) keeps reading its
        final state even after the row is revived for another flow.
        """
        store, row = self._store, self._row
        if store is None:
            return
        self._remaining_bytes = float(store.remaining_bytes[row])
        self._retransmitted_bytes = float(store.retransmitted_bytes[row])
        self._reorder_retx_fraction = float(store.retx_fraction[row])
        self._is_elephant = bool(store.elephant[row])
        self._path_switches = int(store.path_switches[row])
        monitored = int(store.monitored_path[row])
        self._monitored_path_index = None if monitored < 0 else monitored
        end = float(store.end_time[row])
        self._end_time = None if math.isnan(end) else end
        self._store = None
        self._row = -1

    # -- store-backed hot attributes ---------------------------------------------

    @property
    def remaining_bytes(self) -> float:
        store = self._store
        if store is None:
            return self._remaining_bytes
        return float(store.remaining_bytes[self._row])

    @remaining_bytes.setter
    def remaining_bytes(self, value: float) -> None:
        store = self._store
        if store is None:
            self._remaining_bytes = value
        else:
            store.remaining_bytes[self._row] = value

    @property
    def retransmitted_bytes(self) -> float:
        store = self._store
        if store is None:
            return self._retransmitted_bytes
        return float(store.retransmitted_bytes[self._row])

    @retransmitted_bytes.setter
    def retransmitted_bytes(self, value: float) -> None:
        store = self._store
        if store is None:
            self._retransmitted_bytes = value
        else:
            store.retransmitted_bytes[self._row] = value

    @property
    def reorder_retx_fraction(self) -> float:
        """Reordering-induced retransmission fraction of current goodput.

        Recomputed whenever components change; 0 for single-path flows.
        Assignment also refreshes the store's ``goodput_factor`` column
        (``1 - fraction``), keeping the vectorized ETA inputs in lockstep.
        """
        store = self._store
        if store is None:
            return self._reorder_retx_fraction
        return float(store.retx_fraction[self._row])

    @reorder_retx_fraction.setter
    def reorder_retx_fraction(self, value: float) -> None:
        store = self._store
        if store is None:
            self._reorder_retx_fraction = value
        else:
            store.retx_fraction[self._row] = value
            store.goodput_factor[self._row] = 1.0 - value

    @property
    def is_elephant(self) -> bool:
        store = self._store
        if store is None:
            return self._is_elephant
        return bool(store.elephant[self._row])

    @is_elephant.setter
    def is_elephant(self, value: bool) -> None:
        store = self._store
        if store is None:
            self._is_elephant = value
        else:
            store.elephant[self._row] = value

    @property
    def path_switches(self) -> int:
        store = self._store
        if store is None:
            return self._path_switches
        return int(store.path_switches[self._row])

    @path_switches.setter
    def path_switches(self, value: int) -> None:
        store = self._store
        if store is None:
            self._path_switches = value
        else:
            store.path_switches[self._row] = value

    @property
    def monitored_path_index(self) -> Optional[int]:
        """Which monitored equal-cost path this flow currently rides.

        An index into its (src ToR, dst ToR) monitor's path list, assigned
        by the DARD daemon at elephant promotion and on every shift, so
        the control plane's FV accounting compares integers instead of
        hashing switch-path tuples. ``None`` for mice and non-DARD flows.
        """
        store = self._store
        if store is None:
            return self._monitored_path_index
        index = int(store.monitored_path[self._row])
        return None if index < 0 else index

    @monitored_path_index.setter
    def monitored_path_index(self, value: Optional[int]) -> None:
        store = self._store
        if store is None:
            self._monitored_path_index = value
        else:
            store.monitored_path[self._row] = -1 if value is None else value

    @property
    def end_time(self) -> Optional[float]:
        store = self._store
        if store is None:
            return self._end_time
        end = float(store.end_time[self._row])
        return None if math.isnan(end) else end

    @end_time.setter
    def end_time(self, value: Optional[float]) -> None:
        store = self._store
        if store is None:
            self._end_time = value
        else:
            store.end_time[self._row] = math.nan if value is None else value

    # -- derived views ------------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Aggregate allocated rate across components.

        Bound flows read the store's rate column, which the network's
        refill scatter keeps bit-equal to ``sum(component_rates)`` (the
        unbound fallback); ``check_invariants`` audits that equality.
        """
        store = self._store
        if store is None:
            return sum(self.component_rates)
        return float(store.rate_bps[self._row])

    @property
    def goodput_bps(self) -> float:
        """Rate net of reordering-induced retransmissions.

        The completion-scheduling rate: remaining bytes drain at this
        speed. Kept as one shared definition so the network's ETA
        computation and any external telemetry agree bit-for-bit.
        """
        return self.rate_bps * (1.0 - self.reorder_retx_fraction)

    @property
    def active(self) -> bool:
        store = self._store
        if store is None:
            return self._end_time is None
        return bool(np.isnan(store.end_time[self._row]))

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
