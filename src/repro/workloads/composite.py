"""Composite patterns and time-varying load.

The paper evaluates pure patterns; production traffic is a mixture with a
diurnal load curve. Two composable pieces:

* :class:`CompositePattern` — draw each flow's destination from one of
  several sub-patterns with fixed weights (e.g. 70% staggered + 30%
  stride);
* :class:`LoadProfile` + :class:`ModulatedArrivalProcess` — a piecewise-
  constant rate multiplier over time (steps, ramps approximated by steps),
  applied on top of the base arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.simulator.engine import EventEngine
from repro.workloads.generator import ArrivalProcess, WorkloadSpec
from repro.workloads.patterns import TrafficPattern


class CompositePattern(TrafficPattern):
    """A weighted mixture of traffic patterns.

    All sub-patterns must be built over the same topology; weights are
    normalized internally.
    """

    name = "composite"

    def __init__(
        self,
        patterns: Sequence[TrafficPattern],
        weights: Sequence[float],
    ) -> None:
        if not patterns:
            raise ConfigurationError("composite needs at least one sub-pattern")
        if len(patterns) != len(weights):
            raise ConfigurationError(
                f"{len(patterns)} patterns but {len(weights)} weights"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError(f"invalid weights {weights}")
        topologies = {id(p.topology) for p in patterns}
        if len(topologies) != 1:
            raise ConfigurationError("sub-patterns span different topologies")
        super().__init__(patterns[0].topology)
        self.patterns = list(patterns)
        total = float(sum(weights))
        self.weights = [w / total for w in weights]

    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        index = int(rng.choice(len(self.patterns), p=self.weights))
        return self.patterns[index].pick_dst(src, rng)


@dataclass(frozen=True)
class LoadPhase:
    """One piecewise-constant segment of a load profile."""

    until_s: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.until_s <= 0:
            raise ConfigurationError(f"phase boundary must be positive, got {self.until_s}")
        if self.multiplier < 0:
            raise ConfigurationError(f"negative load multiplier {self.multiplier}")


class LoadProfile:
    """A piecewise-constant rate multiplier over time.

    Phases must have strictly increasing boundaries; the last phase's
    multiplier extends to infinity.

    >>> profile = LoadProfile([LoadPhase(10.0, 0.5), LoadPhase(20.0, 2.0)])
    >>> profile.multiplier_at(5.0), profile.multiplier_at(15.0), profile.multiplier_at(99.0)
    (0.5, 2.0, 2.0)
    """

    def __init__(self, phases: Sequence[LoadPhase]) -> None:
        if not phases:
            raise ConfigurationError("load profile needs at least one phase")
        boundaries = [p.until_s for p in phases]
        if boundaries != sorted(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ConfigurationError("phase boundaries must strictly increase")
        self.phases = list(phases)

    def multiplier_at(self, time_s: float) -> float:
        """The rate multiplier in force at ``time_s``."""
        for phase in self.phases:
            if time_s < phase.until_s:
                return phase.multiplier
        return self.phases[-1].multiplier

    @classmethod
    def step(cls, low: float, high: float, switch_at_s: float, end_s: float) -> "LoadProfile":
        """Convenience: ``low`` until ``switch_at_s``, then ``high``."""
        return cls([LoadPhase(switch_at_s, low), LoadPhase(end_s, high)])


class ModulatedArrivalProcess(ArrivalProcess):
    """A Poisson arrival process whose rate follows a load profile.

    Implemented by thinning: inter-arrival gaps are drawn at the base rate
    scaled by the multiplier *at draw time* — exact for piecewise-constant
    profiles when phases are long relative to mean gaps, which is the
    intended regime (diurnal steps, not microbursts).
    """

    def __init__(
        self,
        engine: EventEngine,
        pattern: TrafficPattern,
        spec: WorkloadSpec,
        sink: Callable[[str, str, float], object],
        rng: np.random.Generator,
        profile: LoadProfile,
        max_flows: Optional[int] = None,
    ) -> None:
        super().__init__(engine, pattern, spec, sink, rng, max_flows)
        self.profile = profile

    def start(self) -> None:
        for host in self.pattern.hosts:
            self._schedule_next(host)

    def _schedule_next(self, host: str) -> None:
        multiplier = self.profile.multiplier_at(self.engine.now)
        if multiplier <= 0:
            # Idle phase: re-check at the next phase boundary.
            boundary = next(
                (p.until_s for p in self.profile.phases if p.until_s > self.engine.now),
                None,
            )
            if boundary is None or boundary > self.spec.duration_s:
                return
            self.engine.schedule_at(boundary, lambda h=host: self._schedule_next(h))
            return
        rate = self.spec.arrival_rate_per_host * multiplier
        self._arm(host, float(self.rng.exponential(1.0 / rate)))
