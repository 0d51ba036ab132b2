"""Columnar (structure-of-arrays) storage for hot per-flow state.

The per-event loops of :class:`~repro.simulator.network.Network` —
settling byte counters, recomputing the next completion ETA, finding
finishers — touch a handful of scalar fields of *every* live flow on
*every* event. As Python objects those reads dominate profiles long
before the p=64 scale target (65,536 hosts); as numpy columns the three
loops become three array expressions (see DESIGN.md "Columnar flow
state").

:class:`FlowStore` owns those columns, and keeps them dense: rows
``[0, size)`` are exactly the live flows, one row each. *acquire*
appends a row (growing the arrays geometrically when full); *release*
hands the finished flow a one-row copy of its final state, moves the
last row into the hole and re-points that row's
:class:`~repro.simulator.flows.Flow` view, so a view's row index is
valid for as long as the view is live and no scan ever meets a dead row.

Column ownership (who may write what) is part of the network's hot-path
contract and documented in DESIGN.md; everything here is mechanism, not
policy. The ``flow_id`` column maps rows back to the network's flow
dict; flow ids stay monotonic and are never reused, only rows are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flows names the store)
    from repro.simulator.flows import Flow

__all__ = ["FlowStore"]

#: Rows allocated up front; growth doubles from here.
_INITIAL_CAPACITY = 64

#: ``(column attribute, dtype, a fresh flow's value)``: zero rate, no
#: reordering, active (NaN end time), a mouse that never switched path.
#: ``Flow.__init__`` writes the remaining bytes.
_COLUMN_SPECS: Tuple[Tuple[str, type, float], ...] = (
    ("flow_id", np.int64, -1),
    ("rate_bps", np.float64, 0.0),
    ("retx_fraction", np.float64, 0.0),
    ("remaining_bytes", np.float64, 0.0),
    ("end_time", np.float64, np.nan),
    ("retransmitted_bytes", np.float64, 0.0),
    ("elephant", np.bool_, False),
    ("path_switches", np.int64, 0),
)

_COLUMNS: Tuple[str, ...] = tuple(name for name, _, _ in _COLUMN_SPECS)


class FlowStore:
    """Dense SoA flow-state columns: row ``i`` belongs to ``_views[i]``."""

    __slots__ = _COLUMNS + ("_size", "_views", "_stat_acquires", "_stat_grows")

    # Column annotations (assigned in __init__ from _COLUMN_SPECS).
    flow_id: np.ndarray
    rate_bps: np.ndarray
    retx_fraction: np.ndarray
    remaining_bytes: np.ndarray
    end_time: np.ndarray
    retransmitted_bytes: np.ndarray
    elephant: np.ndarray
    path_switches: np.ndarray

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        for name, dtype, fill in _COLUMN_SPECS:
            setattr(self, name, np.full(capacity, fill, dtype=dtype))
        #: rows ``[0, _size)`` are live; the hot loops scan exactly these.
        self._size = 0
        #: the flow viewing each live row, parallel to rows ``[0, _size)``.
        self._views: List["Flow"] = []
        self._stat_acquires = 0
        self._stat_grows = 0

    # -- introspection ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Live rows: the hot loops scan columns ``[:size]``."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated rows (``size`` grows into this before reallocating)."""
        return int(self.flow_id.shape[0])

    # -- row lifecycle ----------------------------------------------------------

    def acquire(self, flow: "Flow") -> int:
        """Append a row for ``flow``; returns its index.

        The row comes back holding a fresh flow's values and
        ``flow.flow_id``. Called by ``Flow.__init__``, which keeps the
        returned index as the view's row.
        """
        row = self._size
        if row >= self.capacity:
            self._grow(row + 1)
        for name, _, fill in _COLUMN_SPECS:
            getattr(self, name)[row] = fill
        self.flow_id[row] = flow.flow_id
        self._views.append(flow)
        self._size = row + 1
        self._stat_acquires += 1
        return row

    def release(self, row: int) -> None:
        """Free a live row and keep the store dense.

        The row's flow is re-pointed at row 0 of a one-row copy of its
        final state, so a finished flow held by a listener (or a test)
        keeps reading that state after the row is reused. Then the last
        row moves into the hole and its flow is re-pointed there.
        """
        last = self._size - 1
        if row < 0 or row > last:
            raise ValueError(f"release of non-live flow-store row {row}")
        views = self._views
        finished = views[row]
        finished._store = self._final_state(row)
        finished._row = 0
        if row != last:
            for name in _COLUMNS:
                column = getattr(self, name)
                column[row] = column[last]
            moved = views[last]
            views[row] = moved
            moved._row = row
        views.pop()
        self._size = last

    def _final_state(self, row: int) -> "FlowStore":
        """A one-row copy of ``row``, built from column slices.

        The copy lists no view and is never acquired from or released:
        a finished flow and its copy form no reference cycle, so
        dropping the flow frees both at once.
        """
        copy = FlowStore.__new__(FlowStore)
        for name in _COLUMNS:
            setattr(copy, name, getattr(self, name)[row : row + 1].copy())
        copy._size = 1
        copy._views = []
        return copy

    def _grow(self, need: int) -> None:
        new_capacity = max(need, 2 * self.capacity)
        for name, dtype, fill in _COLUMN_SPECS:
            old = getattr(self, name)
            fresh = np.full(new_capacity, fill, dtype=dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)
        self._stat_grows += 1

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Store telemetry, merged into ``Network.perf_stats()``."""
        return {
            "store_rows": float(self._size),
            "store_capacity": float(self.capacity),
            "store_acquires": float(self._stat_acquires),
            "store_grows": float(self._stat_grows),
        }
