"""Adversarial scenario engine: empirical workloads, incast, failure storms.

The paper evaluates DARD on three synthetic uniform-elephant patterns
(§4.1) because commercial traces were unavailable. This module supplies
the workload classes where adaptive routing either earns its keep or
oscillates:

* :class:`EmpiricalDistribution` plus heavy-tailed lognormal/Pareto
  mixture samplers with named DCN presets (:data:`SIZE_PRESETS`,
  :data:`INTERARRIVAL_PRESETS`), feeding the existing
  :class:`~repro.workloads.generator.WorkloadSpec` pipeline through
  :class:`EmpiricalArrivalProcess`;
* :class:`IncastPattern` — many-to-one traffic — and
  :class:`IncastBarrierProcess` — synchronized barriers where every
  sender opens a flow at the same instant;
* :class:`FailureStormScenario` — rolling ``fail_link``/``restore_link``
  waves scheduled through the :class:`~repro.simulator.engine.EventEngine`.

Every sampler draws exclusively from an injected
``numpy.random.Generator`` (the determinism contract: a scenario is a
pure function of its seed), and every class here is drawn by the fuzzer
(``repro.validation.fuzz``) and certified by the differential-oracle
battery, including the :class:`~repro.validation.oracles.StormOracle`.

The predictive elephant detector that these scenarios ablate lives in
:mod:`repro.simulator.detectors` (it is simulator state, not workload);
it is re-exported here so the scenario engine is one import surface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.simulator.detectors import PredictiveElephantDetector
from repro.simulator.engine import EventEngine
from repro.topology.multirooted import MultiRootedTopology
from repro.workloads.generator import ArrivalProcess, WorkloadSpec
from repro.workloads.patterns import TrafficPattern

__all__ = [
    "ARRIVAL_PROCESSES",
    "EmpiricalArrivalProcess",
    "EmpiricalDistribution",
    "FailureStormScenario",
    "INTERARRIVAL_PRESETS",
    "IncastBarrierProcess",
    "IncastPattern",
    "LognormalDistribution",
    "MixtureDistribution",
    "ParetoDistribution",
    "PredictiveElephantDetector",
    "SIZE_PRESETS",
    "make_arrival_process",
    "make_interarrival_distribution",
    "make_size_distribution",
]


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class Distribution(abc.ABC):
    """A positive scalar sampler with a known (finite) mean.

    The finite mean is load-bearing: the arrival pipeline rescales every
    distribution so its mean hits the configured ``flow_size_bytes`` (or
    mean inter-arrival gap), keeping offered load comparable across
    presets, schedulers, and detectors.
    """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value (always > 0)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """The exact distribution mean."""

    def scaled_to_mean(self, target_mean: float) -> "Distribution":
        """This distribution rescaled so its mean equals ``target_mean``."""
        if target_mean <= 0:
            raise ConfigurationError(f"target mean must be positive, got {target_mean}")
        return _ScaledDistribution(self, target_mean / self.mean())


class _ScaledDistribution(Distribution):
    """A distribution multiplied by a fixed positive factor."""

    def __init__(self, inner: Distribution, factor: float) -> None:
        self.inner = inner
        self.factor = float(factor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.inner.sample(rng) * self.factor

    def mean(self) -> float:
        return self.inner.mean() * self.factor


class EmpiricalDistribution(Distribution):
    """Inverse-CDF sampler over observed ``(value, weight)`` support points.

    The canonical way to feed a measured flow-size CDF (the published
    DCN workload papers report exactly this shape) into the generator.
    Weights need not be normalized; values must be positive.

    >>> import numpy as np
    >>> dist = EmpiricalDistribution([10.0, 100.0], [3.0, 1.0])
    >>> round(dist.mean(), 3)
    32.5
    >>> dist.quantile(0.5)
    10.0
    """

    def __init__(
        self,
        values: Sequence[float],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if len(values) == 0:
            raise ConfigurationError("empirical distribution needs at least one value")
        if weights is None:
            weights = [1.0] * len(values)
        if len(weights) != len(values):
            raise ConfigurationError(
                f"{len(values)} values but {len(weights)} weights"
            )
        pairs = sorted(zip((float(v) for v in values), (float(w) for w in weights)))
        self.values = np.array([v for v, _ in pairs], dtype=float)
        raw = np.array([w for _, w in pairs], dtype=float)
        if np.any(self.values <= 0):
            raise ConfigurationError("empirical values must be positive")
        if np.any(raw < 0) or float(raw.sum()) <= 0:
            raise ConfigurationError(f"invalid empirical weights {list(raw)}")
        self.weights = raw / raw.sum()
        self._cdf = np.cumsum(self.weights)
        self._mean = float(np.dot(self.values, self.weights))

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "EmpiricalDistribution":
        """Build from raw observations (each sample weighted equally)."""
        return cls(list(samples))

    def sample(self, rng: np.random.Generator) -> float:
        return self.quantile(float(rng.random()))

    def quantile(self, q: float) -> float:
        """The smallest support value whose CDF reaches ``q``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        index = int(np.searchsorted(self._cdf, q, side="left"))
        return float(self.values[min(index, len(self.values) - 1)])

    def mean(self) -> float:
        return self._mean


class LognormalDistribution(Distribution):
    """Lognormal(mu, sigma) — the body of most measured DCN size CDFs."""

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise ConfigurationError(f"lognormal sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def mean(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))


class ParetoDistribution(Distribution):
    """Pareto(alpha, x_m) — the heavy elephant tail.

    ``alpha`` must exceed 1 so the mean is finite (the pipeline rescales
    by it); the classic DCN tail exponents (1.05–2) qualify.
    """

    def __init__(self, alpha: float, x_m: float) -> None:
        if alpha <= 1.0:
            raise ConfigurationError(
                f"pareto alpha must exceed 1 for a finite mean, got {alpha}"
            )
        if x_m <= 0:
            raise ConfigurationError(f"pareto scale must be positive, got {x_m}")
        self.alpha = float(alpha)
        self.x_m = float(x_m)

    def sample(self, rng: np.random.Generator) -> float:
        return self.x_m * (1.0 + float(rng.pareto(self.alpha)))

    def mean(self) -> float:
        return self.alpha * self.x_m / (self.alpha - 1.0)


class MixtureDistribution(Distribution):
    """A weighted mixture of component distributions (mice body + tail)."""

    def __init__(
        self,
        components: Sequence[Distribution],
        weights: Sequence[float],
    ) -> None:
        if not components:
            raise ConfigurationError("mixture needs at least one component")
        if len(components) != len(weights):
            raise ConfigurationError(
                f"{len(components)} components but {len(weights)} weights"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError(f"invalid mixture weights {list(weights)}")
        total = float(sum(weights))
        self.components = list(components)
        self.weights = [float(w) / total for w in weights]

    def sample(self, rng: np.random.Generator) -> float:
        index = int(rng.choice(len(self.components), p=self.weights))
        return self.components[index].sample(rng)

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )


#: Named heavy-tailed flow-size presets, shaped after the published DCN
#: workload families (web-search / data-mining / cache-follower style
#: mixtures: a lognormal mice body plus a Pareto elephant tail). The
#: absolute byte scale is nominal — the arrival pipeline rescales every
#: preset so its mean equals the configured ``flow_size_bytes``.
SIZE_PRESETS: Dict[str, Callable[[], Distribution]] = {
    "websearch": lambda: MixtureDistribution(
        [LognormalDistribution(np.log(20e3), 1.0), ParetoDistribution(1.5, 1e6)],
        [0.7, 0.3],
    ),
    "datamining": lambda: MixtureDistribution(
        [LognormalDistribution(np.log(4e3), 1.2), ParetoDistribution(1.2, 2e6)],
        [0.8, 0.2],
    ),
    "cache": lambda: MixtureDistribution(
        [LognormalDistribution(np.log(64e3), 0.8), ParetoDistribution(1.8, 4e6)],
        [0.9, 0.1],
    ),
}

class _ExponentialGap(Distribution):
    """Unit-mean exponential gaps (the Poisson baseline, exactly)."""

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0))

    def mean(self) -> float:
        return 1.0


#: Named inter-arrival-gap presets (mean-1 shapes; the pipeline rescales
#: to the configured per-host rate). ``exponential`` reproduces the
#: paper's Poisson arrivals; ``bursty`` is a high-variance lognormal that
#: clumps arrivals the way measured traces do.
INTERARRIVAL_PRESETS: Dict[str, Callable[[], Distribution]] = {
    "exponential": _ExponentialGap,
    "bursty": lambda: LognormalDistribution(-1.125, 1.5),
}


def make_size_distribution(preset: str) -> Distribution:
    """Construct a named flow-size distribution preset."""
    if preset not in SIZE_PRESETS:
        raise ConfigurationError(
            f"unknown size preset {preset!r}; expected one of {sorted(SIZE_PRESETS)}"
        )
    return SIZE_PRESETS[preset]()


def make_interarrival_distribution(preset: str) -> Distribution:
    """Construct a named inter-arrival-gap distribution preset."""
    if preset not in INTERARRIVAL_PRESETS:
        raise ConfigurationError(
            f"unknown interarrival preset {preset!r}; expected one of "
            f"{sorted(INTERARRIVAL_PRESETS)}"
        )
    return INTERARRIVAL_PRESETS[preset]()


# ---------------------------------------------------------------------------
# Empirical arrival process
# ---------------------------------------------------------------------------

class EmpiricalArrivalProcess(ArrivalProcess):
    """Arrivals with empirical per-flow sizes and inter-arrival gaps.

    A drop-in :class:`~repro.workloads.generator.ArrivalProcess` whose
    flow sizes come from ``size_dist`` (rescaled so the mean equals
    ``spec.flow_size_bytes``) and whose gaps come from ``gap_dist``
    (rescaled so the mean gap equals ``1 / arrival_rate_per_host``;
    ``None`` keeps exact Poisson gaps). Load therefore matches the plain
    Poisson/fixed-size process in expectation, while sizes go heavy-tailed
    — the regime where threshold elephant detection wastes its 10 s wait.
    """

    def __init__(
        self,
        engine: EventEngine,
        pattern: TrafficPattern,
        spec: WorkloadSpec,
        sink: Callable[[str, str, float], object],
        rng: np.random.Generator,
        size_dist: Distribution,
        gap_dist: Optional[Distribution] = None,
        max_flows: Optional[int] = None,
    ) -> None:
        super().__init__(engine, pattern, spec, sink, rng, max_flows)
        self.size_dist = size_dist.scaled_to_mean(spec.flow_size_bytes)
        self.gap_dist = (
            None
            if gap_dist is None
            else gap_dist.scaled_to_mean(1.0 / spec.arrival_rate_per_host)
        )

    def start(self) -> None:
        if self.gap_dist is None:
            super().start()
            return
        for host in self.pattern.hosts:
            self._schedule_next(host)

    def _schedule_next(self, host: str) -> None:
        if self.gap_dist is None:
            super()._schedule_next(host)
            return
        self._arm(host, self.gap_dist.sample(self.rng))

    def _arrive(self, host: str) -> None:
        if self.max_flows is None or self.flows_generated < self.max_flows:
            dst = self.pattern.pick_dst(host, self.rng)
            size = max(1.0, self.size_dist.sample(self.rng))
            self.sink(host, dst, size)
            self.flows_generated += 1
        self._schedule_next(host)


# ---------------------------------------------------------------------------
# Incast
# ---------------------------------------------------------------------------

class IncastPattern(TrafficPattern):
    """Many-to-one: every sender converges on a small set of aggregators.

    The first ``targets`` hosts (in sorted order, so the choice is a pure
    function of the topology) act as aggregators; every other host sends
    to one of them, concentrating load on the aggregators' access links.
    Aggregators themselves send background traffic uniformly — partition
    tolerance for the paper's per-host arrival processes, which generate
    from *every* host.
    """

    name = "incast"

    def __init__(self, topology: MultiRootedTopology, targets: int = 1) -> None:
        super().__init__(topology)
        targets = int(targets)
        if not 1 <= targets < len(self.hosts):
            raise ConfigurationError(
                f"incast targets must be in [1, {len(self.hosts) - 1}], got {targets}"
            )
        self.targets = self.hosts[:targets]
        self._target_set = frozenset(self.targets)
        #: the fan-in side; :class:`IncastBarrierProcess` bursts these.
        self.senders = [h for h in self.hosts if h not in self._target_set]

    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        if src in self._target_set:
            while True:
                dst = self.hosts[int(rng.integers(len(self.hosts)))]
                if dst != src:
                    return dst
        if len(self.targets) == 1:
            return self.targets[0]
        return self.targets[int(rng.integers(len(self.targets)))]


class IncastBarrierProcess:
    """Synchronized many-to-one bursts: a barrier fires, everyone sends.

    The adversarial half of incast is the synchronization: at every
    barrier instant each participating sender opens one flow *at the same
    simulated time* (the scatter/gather and partition-aggregate pattern).
    Between barriers the fabric is quiet, so schedulers face a square
    load wave instead of Poisson smoothing.

    API-compatible with :class:`~repro.workloads.generator.ArrivalProcess`
    (``start()`` / ``flows_generated``) so the scenario runner treats the
    two interchangeably. The default barrier period is ``1 / arrival
    rate`` — each host fires once per period in expectation, matching the
    Poisson process's offered load.
    """

    def __init__(
        self,
        engine: EventEngine,
        pattern: TrafficPattern,
        spec: WorkloadSpec,
        sink: Callable[[str, str, float], object],
        rng: np.random.Generator,
        period_s: Optional[float] = None,
        senders_per_burst: Optional[int] = None,
        max_flows: Optional[int] = None,
    ) -> None:
        if period_s is None:
            period_s = 1.0 / spec.arrival_rate_per_host
        if period_s <= 0:
            raise ConfigurationError(f"barrier period must be positive, got {period_s}")
        if senders_per_burst is not None and senders_per_burst < 1:
            raise ConfigurationError(
                f"senders_per_burst must be positive, got {senders_per_burst}"
            )
        self.engine = engine
        self.pattern = pattern
        self.spec = spec
        self.sink = sink
        self.rng = rng
        self.period_s = float(period_s)
        self.senders_per_burst = senders_per_burst
        self.max_flows = max_flows
        self.flows_generated = 0
        self.barriers_fired = 0
        # IncastPattern exposes its fan-in side; any other pattern bursts
        # from every host (an all-to-all synchronized wave).
        self._senders: List[str] = list(getattr(pattern, "senders", pattern.hosts))

    def start(self) -> None:
        """Arm every barrier up to the workload duration."""
        when = self.period_s
        while when <= self.spec.duration_s:
            self.engine.schedule_at(when, self._barrier)
            when += self.period_s

    def _barrier(self) -> None:
        senders = self._senders
        if self.senders_per_burst is not None and self.senders_per_burst < len(senders):
            drawn = self.rng.choice(
                len(senders), size=self.senders_per_burst, replace=False
            )
            senders = [senders[i] for i in sorted(int(j) for j in drawn)]
        self.barriers_fired += 1
        for host in senders:
            if self.max_flows is not None and self.flows_generated >= self.max_flows:
                return
            dst = self.pattern.pick_dst(host, self.rng)
            self.sink(host, dst, self.spec.flow_size_bytes)
            self.flows_generated += 1


# ---------------------------------------------------------------------------
# Failure storms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureStormScenario:
    """Rolling fail/restore waves over the switch-switch cables.

    Every ``wave_interval_s`` starting at ``start_s``, ``cables_per_wave``
    currently-up cables (drawn from the injected rng) go down; each comes
    back ``outage_s`` later (``outage_s <= 0`` means never). The schedule
    is generated as plain ``("fail" | "restore", time, u, v)`` events —
    the same shape :class:`~repro.experiments.runner.ScenarioConfig`
    carries in ``link_events`` — so storms serialize through the config
    JSON round-trip and shrink event-by-event under the fuzzer.
    """

    start_s: float = 2.0
    wave_interval_s: float = 2.0
    waves: int = 3
    cables_per_wave: int = 1
    outage_s: float = 1.5

    def __post_init__(self) -> None:
        if self.start_s <= 0:
            raise ConfigurationError(f"storm start must be positive, got {self.start_s}")
        if self.wave_interval_s <= 0:
            raise ConfigurationError(
                f"wave interval must be positive, got {self.wave_interval_s}"
            )
        if self.waves < 1:
            raise ConfigurationError(f"storm needs at least one wave, got {self.waves}")
        if self.cables_per_wave < 1:
            raise ConfigurationError(
                f"cables per wave must be positive, got {self.cables_per_wave}"
            )

    @staticmethod
    def storm_cables(topology: MultiRootedTopology) -> List[Tuple[str, str]]:
        """The sorted switch-switch cables a storm draws from."""
        return sorted(
            (link.u, link.v)
            for link in topology.links()
            if topology.node(link.u).kind.is_switch
            and topology.node(link.v).kind.is_switch
        )

    def link_events(
        self, topology: MultiRootedTopology, rng: np.random.Generator
    ) -> Tuple[Tuple[str, float, str, str], ...]:
        """Generate the storm's deterministic fail/restore event schedule.

        Rolling semantics: a cable already down at a wave instant is not
        drawn again until its restore lands, so the storm sweeps across
        the fabric instead of hammering one cable.
        """
        cables = self.storm_cables(topology)
        if not cables:
            raise ConfigurationError("topology has no switch-switch cables to fail")
        events: List[Tuple[str, float, str, str]] = []
        down_until: Dict[Tuple[str, str], float] = {}
        for wave in range(self.waves):
            when = self.start_s + wave * self.wave_interval_s
            up = [c for c in cables if down_until.get(c, 0.0) <= when]
            if not up:
                continue
            take = min(self.cables_per_wave, len(up))
            drawn = rng.choice(len(up), size=take, replace=False)
            for index in sorted(int(i) for i in drawn):
                u, v = up[index]
                events.append(("fail", when, u, v))
                if self.outage_s > 0:
                    restore_at = when + self.outage_s
                    events.append(("restore", restore_at, u, v))
                    down_until[(u, v)] = restore_at
                else:
                    down_until[(u, v)] = float("inf")
        return tuple(sorted(events))

    def install(self, network, rng: np.random.Generator) -> Tuple:
        """Schedule the storm directly onto a live network's engine.

        Returns the generated event schedule (for logging / assertions).
        """
        events = self.link_events(network.topology, rng)
        for action, when, u, v in events:
            if action == "fail":
                network.engine.schedule_at(
                    when, lambda u=u, v=v: network.fail_link(u, v)
                )
            else:
                network.engine.schedule_at(
                    when, lambda u=u, v=v: network.restore_link(u, v)
                )
        return events


# ---------------------------------------------------------------------------
# Arrival-process factory (the runner's seam)
# ---------------------------------------------------------------------------

#: Registered arrival-process kinds for ``ScenarioConfig.arrival``.
ARRIVAL_PROCESSES = ("poisson", "empirical", "incast-barrier")


def make_arrival_process(
    name: str,
    engine: EventEngine,
    pattern: TrafficPattern,
    spec: WorkloadSpec,
    sink: Callable[[str, str, float], object],
    rng: np.random.Generator,
    **params,
):
    """Construct an arrival process by registry name.

    ``poisson`` is the paper's baseline (exact historical behavior);
    ``empirical`` takes ``size_preset`` (default ``websearch``) and an
    optional ``interarrival_preset``; ``incast-barrier`` takes
    ``period_s`` / ``senders_per_burst``. All three accept ``max_flows``.
    """
    if name == "poisson":
        return ArrivalProcess(engine, pattern, spec, sink, rng, **params)
    if name == "empirical":
        size_preset = params.pop("size_preset", "websearch")
        interarrival_preset = params.pop("interarrival_preset", None)
        gap_dist = (
            None
            if interarrival_preset is None
            else make_interarrival_distribution(interarrival_preset)
        )
        return EmpiricalArrivalProcess(
            engine,
            pattern,
            spec,
            sink,
            rng,
            size_dist=make_size_distribution(size_preset),
            gap_dist=gap_dist,
            **params,
        )
    if name == "incast-barrier":
        return IncastBarrierProcess(engine, pattern, spec, sink, rng, **params)
    raise ConfigurationError(
        f"unknown arrival process {name!r}; expected one of {sorted(ARRIVAL_PROCESSES)}"
    )
