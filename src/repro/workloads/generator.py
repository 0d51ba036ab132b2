"""Poisson flow-arrival process driving a scheduler."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MB
from repro.simulator.engine import EventEngine
from repro.workloads.patterns import TrafficPattern

#: The paper's elephant flow payload: a 128 MB FTP transfer.
DEFAULT_FLOW_SIZE_BYTES = 128 * MB


@dataclass(frozen=True)
class WorkloadSpec:
    """Arrival parameters for one experiment.

    ``arrival_rate_per_host`` is the expected number of flows each source
    host generates per second (the paper's "flow generating rate");
    inter-arrival times are exponential. Arrivals stop at ``duration_s``
    but flows already admitted run to completion.
    """

    arrival_rate_per_host: float
    duration_s: float
    flow_size_bytes: float = DEFAULT_FLOW_SIZE_BYTES

    def __post_init__(self) -> None:
        if self.arrival_rate_per_host <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {self.arrival_rate_per_host}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration_s}")
        if self.flow_size_bytes <= 0:
            raise ConfigurationError(f"flow size must be positive, got {self.flow_size_bytes}")


class ArrivalProcess:
    """Schedules flow arrivals onto an event engine.

    One independent Poisson process per source host; each arrival asks the
    pattern for a destination and hands the flow to ``sink`` (normally
    ``scheduler.place``).
    """

    def __init__(
        self,
        engine: EventEngine,
        pattern: TrafficPattern,
        spec: WorkloadSpec,
        sink: Callable[[str, str, float], object],
        rng: np.random.Generator,
        max_flows: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.pattern = pattern
        self.spec = spec
        self.sink = sink
        self.rng = rng
        self.max_flows = max_flows
        self.flows_generated = 0

    def start(self) -> None:
        """Arm the first arrival for every source host.

        The first gaps are one vectorized draw: numpy fills an array of
        exponentials with the same per-value draws, in the same order, as
        repeated scalar calls, so the gaps and the generator state after
        them are bit-identical to drawing host by host. A subclass that
        changes the gap law overrides this with :meth:`_schedule_next`.
        """
        hosts = self.pattern.hosts
        gaps = self.rng.exponential(1.0 / self.spec.arrival_rate_per_host, len(hosts))
        for host, gap in zip(hosts, gaps.tolist()):
            self._arm(host, gap)

    def _schedule_next(self, host: str) -> None:
        self._arm(host, float(self.rng.exponential(1.0 / self.spec.arrival_rate_per_host)))

    def _arm(self, host: str, gap: float) -> None:
        when = self.engine.now + gap
        if when > self.spec.duration_s:
            return
        self.engine.schedule_at(when, lambda h=host: self._arrive(h))

    def _arrive(self, host: str) -> None:
        if self.max_flows is None or self.flows_generated < self.max_flows:
            dst = self.pattern.pick_dst(host, self.rng)
            self.sink(host, dst, self.spec.flow_size_bytes)
            self.flows_generated += 1
        self._schedule_next(host)
