"""Per-pair caching of DARD path-state queries.

Every live :class:`~repro.core.monitor.PathMonitor` polls the bottleneck
state of its (source ToR, destination ToR) pair's equal-cost paths once a
second. The :class:`MonitorRegistry` keeps each live pair's last
``(bandwidth, elephant count)`` rows. A poll is answered from them when
none of the pair's links changed since they were computed; otherwise
the pair's rows are recomputed with one
:meth:`~repro.simulator.network.Network.batch_path_state_arrays` call
over its own link-id CSR.

Change tracking is one int64 **stamp** per link id and a clock. The
network calls :meth:`mark_links_dirty` (via
``Network.link_state_watchers``) whenever a link's elephant count or
up/down state changes, and the registry writes the current clock into
those links' stamps. A refresh records the clock it ran at and then
advances it, so a pair's cache is fresh iff none of its links carries a
stamp newer than that record.

Equivalence contract (see DESIGN.md "Control-plane batching"): a cached
row always equals what a fresh per-monitor ``batch_path_state`` would
report at the same instant, bit-for-bit. Rows are independent (the
bottleneck reduction never crosses row boundaries), a row's inputs are
exactly its links' ``(capacity, failed, elephant-count)`` entries, and
every mutation of those entries stamps the link — so serving a pair
whose links carry no newer stamp replays the identical float arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (monitor imports us)
    from repro.core.monitor import PairPaths
    from repro.simulator.network import Network

PairKey = Tuple[str, str]
#: (clock at the refresh, bandwidth rows, elephant-count rows)
CacheEntry = Tuple[int, np.ndarray, np.ndarray]

__all__ = ["MonitorRegistry"]


class MonitorRegistry:
    """Per-pair cache of path states, checked against per-link stamps."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        network.link_state_watchers.append(self.mark_links_dirty)
        #: pair -> interned immutable path/CSR description (kept forever;
        #: topology-static, so re-registration never recomputes it).
        self._interned: Dict[PairKey, "PairPaths"] = {}
        #: pair -> live monitor count.
        self._refs: Dict[PairKey, int] = {}
        #: link id -> clock value of its last reported state change.
        self._link_stamp = np.zeros(len(network.link_index), dtype=np.int64)
        self._clock = 0
        #: live pair -> its rows and the clock they were computed at.
        self._pair_cache: Dict[PairKey, CacheEntry] = {}
        # Telemetry (surfaced through DardScheduler.controlplane_stats).
        self.stat_queries = 0
        self.stat_cache_hits = 0
        self.stat_refreshes = 0
        self.stat_rows_refreshed = 0
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
        self._refs[pair] = self._refs.get(pair, 0) + 1
        self.stat_registrations += 1
        return pp

    def release(self, src_tor: str, dst_tor: str) -> None:
        """A monitor for this pair went away (last elephant completed)."""
        pair = (src_tor, dst_tor)
        refs = self._refs.get(pair, 0) - 1
        if refs < 0:
            return
        self._refs[pair] = refs
        if refs == 0:
            self._pair_cache.pop(pair, None)

    @property
    def live_pairs(self) -> int:
        return sum(1 for refs in self._refs.values() if refs > 0)

    @property
    def rows(self) -> int:
        """Rows currently held in the cache, over every live pair."""
        return sum(entry[1].size for entry in self._pair_cache.values())

    # -- change tracking and the query surface ---------------------------------

    def mark_links_dirty(self, link_ids: np.ndarray) -> None:
        """Network callback: these links' reported state changed."""
        self._link_stamp[link_ids] = self._clock

    def pair_rows(self, src_tor: str, dst_tor: str) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(bandwidth, elephant count)`` rows of one pair.

        One entry per *monitored* path of the pair, in the pair's CSR row
        order; read-only by convention (the cache keeps serving them).
        Served from the pair's cache unless one of its links was stamped
        after the cached rows were computed.
        """
        pair = (src_tor, dst_tor)
        pp = self._interned[pair]
        self.stat_queries += 1
        entry = self._pair_cache.get(pair)
        if entry is not None:
            clock, band, eleph = entry
            if self._link_stamp[pp.link_ids].max(initial=0) <= clock:
                self.stat_cache_hits += 1
                return band, eleph
        return self._store_rows(pair, pp)

    def _store_rows(
        self, pair: PairKey, pp: "PairPaths"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recompute one pair's rows and cache them at the current clock."""
        band, eleph = self.network.batch_path_state_arrays(
            pp.csr_indices, pp.csr_indptr
        )
        self._pair_cache[pair] = (self._clock, band, eleph)
        self._clock += 1
        self.stat_refreshes += 1
        self.stat_rows_refreshed += int(band.size)
        return band, eleph

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Registry telemetry, merged into ``Network.perf_stats()``."""
        return {
            "cp_registry_pairs": float(self.live_pairs),
            "cp_registry_rows": float(self.rows),
            "cp_registry_queries": float(self.stat_queries),
            "cp_registry_cache_hits": float(self.stat_cache_hits),
            "cp_registry_refreshes": float(self.stat_refreshes),
            "cp_registry_rows_refreshed": float(self.stat_rows_refreshed),
            "cp_registry_registrations": float(self.stat_registrations),
        }
