"""Columnar (structure-of-arrays) storage for hot per-flow state.

The per-event loops of :class:`~repro.simulator.network.Network` —
settling byte counters, recomputing the next completion ETA, finding
finishers — touch a handful of scalar fields of *every* live flow on
*every* event. As Python objects those reads dominate profiles long
before the p=64 scale target (65,536 hosts); as numpy columns the three
loops become three masked array expressions (see DESIGN.md "Columnar
flow state").

:class:`FlowStore` owns those columns. Rows are allocated densely with
free-list revival and geometric growth — the same structure lifecycle as
:class:`~repro.core.registry.MonitorRegistry` (PR 5): *acquire* pops the
smallest free row (keeping live rows packed at the bottom) or extends the
active span, *release* marks the row dead and pushes it onto the free
heap, and once dead rows reach half the active span a **compaction
epoch** shrinks the span back to the highest live row. Live rows never
move — a :class:`~repro.simulator.flows.Flow` view object's row index
stays valid from bind to unbind — so compaction only ever drops the free
tail.

Column ownership (who may write what) is part of the network's hot-path
contract and documented in DESIGN.md; everything here is mechanism, not
policy. The ``flow_id`` column maps rows back to the network's flow dict
(``-1`` = dead row); flow ids themselves stay monotonic and are never
reused, only rows are.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["FlowStore"]

#: Rows allocated up front; growth doubles from here.
_INITIAL_CAPACITY = 64

#: Compaction epoch: shrink the active span once dead rows reach half of
#: it — but only when the span is big enough for the scan to matter.
_COMPACT_MIN_ROWS = 64

#: ``(column attribute, dtype, fill value for fresh rows)``. The fill
#: values keep masked hot-path expressions safe on dead rows: zero rate
#: never passes a ``> 0`` mask, NaN end-time means "no timestamp", and a
#: unit goodput factor never divides anything surprising.
_COLUMN_SPECS: Tuple[Tuple[str, type, float], ...] = (
    ("flow_id", np.int64, -1),
    ("rate_bps", np.float64, 0.0),
    ("goodput_factor", np.float64, 1.0),
    ("retx_fraction", np.float64, 0.0),
    ("remaining_bytes", np.float64, 0.0),
    ("start_time", np.float64, 0.0),
    ("end_time", np.float64, np.nan),
    ("retransmitted_bytes", np.float64, 0.0),
    ("elephant", np.bool_, False),
    ("live", np.bool_, False),
    ("monitored_path", np.int64, -1),
    ("path_switches", np.int64, 0),
)


class FlowStore:
    """SoA flow-state columns with free-list row revival and compaction."""

    __slots__ = tuple(name for name, _, _ in _COLUMN_SPECS) + (
        "_size",
        "_free",
        "_live_count",
        "_stat_acquires",
        "_stat_revivals",
        "_stat_grows",
        "_stat_compactions",
    )

    # Column annotations (assigned in __init__ from _COLUMN_SPECS).
    flow_id: np.ndarray
    rate_bps: np.ndarray
    goodput_factor: np.ndarray
    retx_fraction: np.ndarray
    remaining_bytes: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    retransmitted_bytes: np.ndarray
    elephant: np.ndarray
    live: np.ndarray
    monitored_path: np.ndarray
    path_switches: np.ndarray

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        for name, dtype, fill in _COLUMN_SPECS:
            setattr(self, name, np.full(capacity, fill, dtype=dtype))
        #: active span: rows ``[0, _size)`` are in use or on the free heap.
        self._size = 0
        #: min-heap of released rows inside the active span; popping the
        #: smallest keeps live rows packed toward the bottom, which is what
        #: lets compaction shrink the span instead of moving rows.
        self._free: List[int] = []
        self._live_count = 0
        self._stat_acquires = 0
        self._stat_revivals = 0
        self._stat_grows = 0
        self._stat_compactions = 0

    # -- introspection ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Active span: the hot loops scan columns ``[:size]``."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated rows (``size`` grows into this before reallocating)."""
        return int(self.flow_id.shape[0])

    @property
    def live_count(self) -> int:
        """Rows currently bound to a live flow."""
        return self._live_count

    # -- row lifecycle ----------------------------------------------------------

    def acquire(self, flow_id: int) -> int:
        """Claim a row for ``flow_id``; returns its (stable) row index.

        Revives the smallest free row when one exists, else extends the
        active span (growing the arrays geometrically when full). The row
        comes back reset to the fresh-row fill values with ``live`` set.
        """
        self._stat_acquires += 1
        if self._free:
            row = heapq.heappop(self._free)
            self._stat_revivals += 1
        else:
            row = self._size
            if row >= self.capacity:
                self._grow(row + 1)
            self._size = row + 1
        self._reset_row(row, flow_id)
        self._live_count += 1
        return row

    def release(self, row: int) -> None:
        """Return a row to the free pool; may trigger a compaction epoch."""
        if row < 0 or row >= self._size or not bool(self.live[row]):
            raise ValueError(f"release of non-live flow-store row {row}")
        # Dead rows only need to fail the hot-path masks (all of which AND
        # with ``live``); the full fill-value reset happens at revival.
        self.live[row] = False
        self.flow_id[row] = -1
        self.rate_bps[row] = 0.0
        self._live_count -= 1
        heapq.heappush(self._free, row)
        if self._size >= _COMPACT_MIN_ROWS and self._live_count * 2 <= self._size:
            self._compact()

    def _reset_row(self, row: int, flow_id: int) -> None:
        for name, _, fill in _COLUMN_SPECS:
            getattr(self, name)[row] = fill
        self.flow_id[row] = flow_id
        self.live[row] = flow_id >= 0

    def _grow(self, need: int) -> None:
        new_capacity = max(need, 2 * self.capacity)
        for name, dtype, fill in _COLUMN_SPECS:
            old = getattr(self, name)
            fresh = np.full(new_capacity, fill, dtype=dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)
        self._stat_grows += 1

    def _compact(self) -> None:
        """Shrink the active span down to the highest live row.

        Live rows are never moved (bound views keep their indices); only
        the free tail above the last live row is dropped, and the free
        heap is filtered to the surviving span. With pop-smallest revival
        the live rows trend dense at the bottom, so long runs with bursty
        flow populations keep the span near the live count.
        """
        live_rows = np.flatnonzero(self.live[: self._size])
        new_size = int(live_rows[-1]) + 1 if live_rows.size else 0
        if new_size >= self._size:
            return
        self._free = [row for row in self._free if row < new_size]
        heapq.heapify(self._free)
        self._size = new_size
        self._stat_compactions += 1

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Store telemetry, merged into ``Network.perf_stats()``."""
        return {
            "store_rows": float(self._size),
            "store_capacity": float(self.capacity),
            "store_live": float(self._live_count),
            "store_acquires": float(self._stat_acquires),
            "store_revivals": float(self._stat_revivals),
            "store_grows": float(self._stat_grows),
            "store_compactions": float(self._stat_compactions),
        }
