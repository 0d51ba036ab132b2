"""Time-series sampling of a live simulation.

The fluid simulator only exposes instantaneous state; these samplers hook
a periodic engine event to record per-flow rates or per-link utilizations
over time — the raw material for throughput timelines and hotspot plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.simulator.network import Network


@dataclass
class RateSample:
    """One snapshot of a flow's aggregate rate."""

    time_s: float
    flow_id: int
    rate_bps: float


class RateSampler:
    """Record every active flow's rate at a fixed sampling interval."""

    def __init__(self, network: Network, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s}")
        self.network = network
        self.interval_s = interval_s
        self.samples: List[RateSample] = []
        network.engine.schedule_every(interval_s, self._sample)

    def _sample(self) -> None:
        now = self.network.now
        for flow in self.network.flows.values():
            self.samples.append(RateSample(now, flow.flow_id, flow.rate_bps))

    def series_for(self, flow_id: int) -> List[Tuple[float, float]]:
        """(time, rate) points for one flow."""
        return [
            (s.time_s, s.rate_bps) for s in self.samples if s.flow_id == flow_id
        ]

    def aggregate_throughput(self) -> List[Tuple[float, float]]:
        """(time, total rate) across all flows, per sampling instant."""
        totals: Dict[float, float] = {}
        for sample in self.samples:
            totals[sample.time_s] = totals.get(sample.time_s, 0.0) + sample.rate_bps
        return sorted(totals.items())


class LinkUtilizationSampler:
    """Record the utilization of selected directed links over time."""

    def __init__(
        self,
        network: Network,
        links: Sequence[Tuple[str, str]],
        interval_s: float = 1.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s}")
        for link in links:
            if link not in network.capacities:
                raise ConfigurationError(f"unknown link {link}")
        self.network = network
        self.links = list(links)
        self.interval_s = interval_s
        self.series: Dict[Tuple[str, str], List[Tuple[float, float]]] = {
            link: [] for link in self.links
        }
        network.engine.schedule_every(interval_s, self._sample)

    def _sample(self) -> None:
        now = self.network.now
        for link in self.links:
            self.series[link].append((now, self.network.utilization(*link)))

    def peak_utilization(self, link: Tuple[str, str]) -> float:
        """The highest sampled utilization of one directed link."""
        points = self.series[link]
        return max((u for _, u in points), default=0.0)
