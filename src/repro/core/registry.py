"""Fleet-wide batching of DARD path-state queries.

Every live :class:`~repro.core.monitor.PathMonitor` polls the bottleneck
state of its (source ToR, destination ToR) pair's equal-cost paths once a
second. Run standalone, each poll is one ``batch_path_state`` numpy call —
thousands of tiny vectorized calls per simulated second at p=32. The
:class:`MonitorRegistry` collapses them: it stacks every registered pair's
per-path link-id CSR into **one network-wide CSR**, caches the per-row
bottleneck ``(bandwidth, elephant count)`` arrays, and answers monitor
polls from that cache. The cache is invalidated *by link*: the network
calls :meth:`mark_links_dirty` (via ``Network.link_state_watchers``)
whenever a link's elephant count or up/down state changes, and the next
poll refreshes **only the rows crossing a dirtied link** with a single
:meth:`~repro.simulator.network.Network.batch_path_state_arrays` call.

Equivalence contract (see DESIGN.md "Control-plane batching"): a cached
row always equals what a fresh per-monitor ``batch_path_state`` would
report at the same instant, bit-for-bit. Rows are independent (the
bottleneck reduction never crosses row boundaries), a row's inputs are
exactly its links' ``(capacity, failed, elephant-count)`` entries, and
every mutation of those entries marks the link dirty — so serving an
unmarked row from cache replays the identical float arithmetic.

Structure lifecycle mirrors :class:`~repro.simulator.components.
FlowLinkComponents`: pair *registration* appends rows to the stacked CSR
(amortized geometric growth) and *release* only drops a refcount; rows of
fully released pairs stay in place — still refreshed, never served — until
released rows reach half the structure, when a compaction epoch rebuilds
the stack from the live pairs. A pair re-registered before its epoch
reclaims its still-fresh rows for free, which makes the recurring
monitor churn of long runs (same ToR pairs promoted again and again)
steady-state rebuild-free.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, DefaultDict, Dict, List, Tuple

import numpy as np

from repro.simulator.parallel import MIN_CP_FANOUT_ROWS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (monitor imports us)
    from repro.core.monitor import PairPaths
    from repro.simulator.network import Network

PairKey = Tuple[str, str]

__all__ = ["MonitorRegistry"]


class MonitorRegistry:
    """Stacked-CSR cache of per-pair path states, dirty-tracked by link."""

    #: compaction epoch: rebuild once released rows reach this fraction of
    #: the structure (and the structure is big enough to bother).
    _COMPACT_MIN_ROWS = 64

    def __init__(self, network: "Network") -> None:
        self.network = network
        network.link_state_watchers.append(self.mark_links_dirty)
        #: pair -> interned immutable path/CSR description (kept forever;
        #: topology-static, so re-registration never recomputes it).
        self._interned: Dict[PairKey, "PairPaths"] = {}
        #: pair -> live monitor count.
        self._refs: Dict[PairKey, int] = {}
        #: pair -> (row start, row count) in the stacked CSR. Pairs stay
        #: here after release until the next compaction epoch.
        self._span: Dict[PairKey, Tuple[int, int]] = {}
        # The stacked CSR and its per-row state cache, geometrically grown.
        self._indices = np.empty(1024, dtype=np.intp)
        self._indptr = np.zeros(257, dtype=np.intp)
        self._row_band = np.zeros(256, dtype=float)
        self._row_eleph = np.zeros(256, dtype=np.int64)
        self._nrows = 0
        self._nnz = 0
        #: link id -> list of global-row-id arrays crossing it (one view
        #: per pair registration, into that pair's shifted
        #: :attr:`PairPaths.link_rows`; reset at compaction).
        self._link_rows: DefaultDict[int, List[np.ndarray]] = defaultdict(list)
        #: link-id arrays reported dirty since the last refresh.
        self._pending_links: List[np.ndarray] = []
        #: explicit dirty row ranges (freshly appended pairs).
        self._pending_rows: List[np.ndarray] = []
        #: rows belonging to pairs whose refcount dropped to zero.
        self._dead_rows = 0
        # Telemetry (surfaced through DardScheduler.controlplane_stats).
        self.stat_queries = 0
        self.stat_cache_hits = 0
        self.stat_refreshes = 0
        self.stat_rows_refreshed = 0
        self.stat_rebuilds = 0
        self.stat_registrations = 0

    # -- pair lifecycle -------------------------------------------------------

    def intern_pair(self, src_tor: str, dst_tor: str) -> "PairPaths":
        """The pair's immutable path/CSR description, computed once ever."""
        from repro.core.monitor import index_pair_paths

        pair = (src_tor, dst_tor)
        pp = self._interned.get(pair)
        if pp is None:
            pp = index_pair_paths(self.network, src_tor, dst_tor)
            self._interned[pair] = pp
        return pp

    def register(self, src_tor: str, dst_tor: str) -> "PairPaths":
        """A monitor for this pair came up; returns its interned paths."""
        pair = (src_tor, dst_tor)
        pp = self.intern_pair(src_tor, dst_tor)
        refs = self._refs.get(pair, 0)
        self._refs[pair] = refs + 1
        self.stat_registrations += 1
        span = self._span.get(pair)
        if span is None:
            self._append_pair(pair, pp)
        elif refs == 0:
            # Revived before its compaction epoch: the rows were kept
            # refreshed the whole time, so reclaiming them is free.
            self._dead_rows -= span[1]
        return pp

    def release(self, src_tor: str, dst_tor: str) -> None:
        """A monitor for this pair went away (last elephant completed)."""
        pair = (src_tor, dst_tor)
        refs = self._refs.get(pair, 0) - 1
        if refs < 0:
            return
        self._refs[pair] = refs
        span = self._span.get(pair)
        if refs == 0 and span is not None:
            self._dead_rows += span[1]
            if (
                self._nrows >= self._COMPACT_MIN_ROWS
                and self._dead_rows * 2 >= self._nrows
            ):
                self._compact()

    @property
    def live_pairs(self) -> int:
        return sum(1 for refs in self._refs.values() if refs > 0)

    @property
    def rows(self) -> int:
        """Rows currently in the stacked CSR (live + not-yet-compacted)."""
        return self._nrows

    # -- structure maintenance ------------------------------------------------

    def _append_pair(self, pair: PairKey, pp: "PairPaths") -> None:
        rows = int(pp.monitored.size)
        nnz = int(pp.csr_indices.size)
        self._reserve(rows, nnz)
        start = self._nrows
        self._indices[self._nnz : self._nnz + nnz] = pp.csr_indices
        self._indptr[start + 1 : start + rows + 1] = pp.csr_indptr[1:] + self._nnz
        self._nrows += rows
        self._nnz += nnz
        self._span[pair] = (start, rows)
        # One shift for the whole pair; each link gets a view into it.
        global_rows = pp.link_rows + start
        bounds = pp.link_indptr.tolist()
        link_rows = self._link_rows
        for k, link_id in enumerate(pp.link_ids.tolist()):
            link_rows[link_id].append(global_rows[bounds[k] : bounds[k + 1]])
        if rows:
            self._pending_rows.append(np.arange(start, start + rows, dtype=np.intp))

    def _reserve(self, rows: int, nnz: int) -> None:
        need_rows = self._nrows + rows + 1
        if need_rows > self._indptr.size:
            size = max(need_rows, 2 * self._indptr.size)
            self._indptr = np.resize(self._indptr, size)
            self._row_band = np.resize(self._row_band, size)
            self._row_eleph = np.resize(self._row_eleph, size)
        if self._nnz + nnz > self._indices.size:
            self._indices = np.resize(
                self._indices, max(self._nnz + nnz, 2 * self._indices.size)
            )

    def _compact(self) -> None:
        """Compaction epoch: rebuild the stack from the live pairs only."""
        live = [(pair, self._interned[pair]) for pair, span in self._span.items()
                if self._refs.get(pair, 0) > 0]
        self._span = {}
        self._link_rows = defaultdict(list)
        self._pending_links = []
        self._pending_rows = []
        self._nrows = 0
        self._nnz = 0
        self._dead_rows = 0
        self.stat_rebuilds += 1
        for pair, pp in live:
            self._append_pair(pair, pp)

    # -- dirty tracking and refresh --------------------------------------------

    def mark_links_dirty(self, link_ids: np.ndarray) -> None:
        """Network callback: these links' reported state changed."""
        if self._nrows:
            self._pending_links.append(link_ids)

    def _dirty_row_set(self) -> np.ndarray:
        chunks = list(self._pending_rows)
        if self._pending_links:
            if len(self._pending_links) == 1:
                links = np.unique(self._pending_links[0])
            else:
                links = np.unique(np.concatenate(self._pending_links))
            link_rows = self._link_rows
            for link_id in links.tolist():
                chunks.extend(link_rows.get(link_id, ()))
        self._pending_links = []
        self._pending_rows = []
        if not chunks:
            return np.empty(0, dtype=np.intp)
        if len(chunks) == 1:
            return np.unique(chunks[0])
        return np.unique(np.concatenate(chunks))

    def _refresh(self) -> None:
        rows = self._dirty_row_set()
        if not rows.size:
            return
        self.stat_refreshes += 1
        self.stat_rows_refreshed += int(rows.size)
        if rows.size == self._nrows:
            band, eleph = self._batched_rows_state(
                self._indices[: self._nnz], self._indptr[: self._nrows + 1]
            )
            self._row_band[: self._nrows] = band
            self._row_eleph[: self._nrows] = eleph
            return
        # Gather the dirty rows into a sub-CSR (pure index arithmetic, no
        # python loop), refresh them with one vectorized call, scatter back.
        starts = self._indptr[rows]
        lengths = self._indptr[rows + 1] - starts
        sub_indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=sub_indptr[1:])
        total = int(sub_indptr[-1])
        offsets = (
            np.arange(total, dtype=np.intp)
            - np.repeat(sub_indptr[:-1], lengths)
            + np.repeat(starts, lengths)
        )
        band, eleph = self._batched_rows_state(self._indices[offsets], sub_indptr)
        self._row_band[rows] = band
        self._row_eleph[rows] = eleph

    def _batched_rows_state(
        self, indices: np.ndarray, indptr: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Path state for a row CSR, chunked across the parallel backend.

        ``batch_path_state_arrays`` is row-independent and write-pure (it
        reads the dense link columns and returns fresh arrays), so
        contiguous row chunks reassembled in chunk order are positionally
        identical to the single combined call — the cache scatter stays in
        :meth:`_refresh`, the registry's sanctioned writer. Chunk bounds
        are integer arithmetic over the row count alone: the same refresh
        fans out the same way on every machine. Small refreshes (the
        steady-state common case) stay on the combined call.
        """
        network = self.network
        backend = network.parallel
        nrows = indptr.size - 1
        if backend.workers < 2 or nrows < MIN_CP_FANOUT_ROWS:
            return network.batch_path_state_arrays(indices, indptr)
        workers = backend.workers
        payloads: List[Tuple[np.ndarray, np.ndarray]] = []
        for k in range(workers):
            lo = nrows * k // workers
            hi = nrows * (k + 1) // workers
            if lo == hi:
                continue
            chunk_indptr = indptr[lo : hi + 1] - indptr[lo]
            chunk_indices = indices[indptr[lo] : indptr[hi]]
            payloads.append((chunk_indices, chunk_indptr))
        results = backend.run_tasks(network.batch_path_state_arrays, payloads)
        band = np.concatenate([pair[0] for pair in results])
        eleph = np.concatenate([pair[1] for pair in results])
        return band, eleph

    # -- the query surface ------------------------------------------------------

    def pair_rows(self, src_tor: str, dst_tor: str) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(bandwidth, elephant count)`` rows of one pair.

        Returns read-only-by-convention views into the shared cache, one
        entry per *monitored* path of the pair, in the pair's CSR row
        order. Refreshes every dirty row of the whole fleet first — so the
        first monitor polled at a sync tick pays one batched call and the
        rest are pure cache reads.
        """
        self.stat_queries += 1
        if self._pending_links or self._pending_rows:
            self._refresh()
        else:
            self.stat_cache_hits += 1
        start, count = self._span[(src_tor, dst_tor)]
        return (
            self._row_band[start : start + count],
            self._row_eleph[start : start + count],
        )

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Registry telemetry, merged into ``Network.perf_stats()``."""
        return {
            "cp_registry_pairs": float(self.live_pairs),
            "cp_registry_rows": float(self._nrows),
            "cp_registry_queries": float(self.stat_queries),
            "cp_registry_cache_hits": float(self.stat_cache_hits),
            "cp_registry_refreshes": float(self.stat_refreshes),
            "cp_registry_rows_refreshed": float(self.stat_rows_refreshed),
            "cp_registry_rebuilds": float(self.stat_rebuilds),
            "cp_registry_registrations": float(self.stat_registrations),
        }
