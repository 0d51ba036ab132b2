"""Whole-network statistics sampled over time.

Complements the per-flow and per-link samplers with the aggregate view:
active flows, live elephants, and total goodput per sampling instant —
the series behind "how loaded was the fabric during this run".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigurationError
from repro.simulator.network import Network


@dataclass(frozen=True)
class NetworkSample:
    """One aggregate snapshot."""

    time_s: float
    active_flows: int
    active_elephants: int
    throughput_bps: float
    failed_links: int


class NetworkStatsSampler:
    """Periodic aggregate snapshots of a live network."""

    def __init__(self, network: Network, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s}")
        self.network = network
        self.interval_s = interval_s
        self.samples: List[NetworkSample] = []
        network.engine.schedule_every(interval_s, self._sample)

    def _sample(self) -> None:
        net = self.network
        flows = list(net.flows.values())
        self.samples.append(
            NetworkSample(
                time_s=net.now,
                active_flows=len(flows),
                active_elephants=sum(1 for f in flows if f.is_elephant),
                throughput_bps=sum(f.rate_bps for f in flows),
                failed_links=len(net.failed_links) // 2,  # cables, not directions
            )
        )

    def peak_active_flows(self) -> int:
        """The highest sampled number of simultaneously active flows."""
        return max((s.active_flows for s in self.samples), default=0)

    def mean_throughput_bps(self) -> float:
        """Average sampled aggregate goodput."""
        if not self.samples:
            return 0.0
        return sum(s.throughput_bps for s in self.samples) / len(self.samples)

    def busiest_instant(self) -> NetworkSample:
        """The sample with the highest goodput; raises if none taken."""
        if not self.samples:
            raise ConfigurationError("no samples recorded yet")
        return max(self.samples, key=lambda s: s.throughput_bps)
