"""Per-pair interning of DARD monitor descriptions.

Every live :class:`~repro.core.monitor.PathMonitor` polls the bottleneck
state of its (source ToR, destination ToR) pair's equal-cost paths once a
second, straight from the network. What a poll needs that never changes —
the pair's computed path sequence, its dense ``(paths, hops)`` link-id
matrix and the size of its switch query set — is built once per pair by
:func:`~repro.core.monitor.index_pair_paths` and kept here, so monitor
churn (a pair's last elephant completes, a new one comes back later)
never rebuilds it. The table keeps no path state: a per-pair cache of
the polled rows served too few polls to pay for its invalidation
(EXPERIMENTS.md "Uncached monitor polls").
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.monitor import PairPaths, index_pair_paths
from repro.simulator.network import Network

PairKey = Tuple[str, str]

__all__ = ["MonitorRegistry"]


class MonitorRegistry:
    """Fleet-wide intern table: (src ToR, dst ToR) -> :class:`PairPaths`."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: pair -> interned immutable description (kept forever; it is
        #: topology-static, so re-registration never recomputes it).
        self._interned: Dict[PairKey, PairPaths] = {}

    def register(self, src_tor: str, dst_tor: str) -> PairPaths:
        """A monitor for this pair came up; returns its interned paths."""
        pair = (src_tor, dst_tor)
        pair_paths = self._interned.get(pair)
        if pair_paths is None:
            pair_paths = index_pair_paths(self.network, src_tor, dst_tor)
            self._interned[pair] = pair_paths
        return pair_paths
