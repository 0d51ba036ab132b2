"""Scenario runner: one (topology, pattern, scheduler, load) simulation.

All stochastic inputs derive from one seed through named RNG streams, and
the arrival process draws from a stream the scheduler never touches — so
two schedulers run against *byte-identical workloads*, which is what makes
the paper's pairwise improvement numbers meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStreams
from repro.addressing.codec import PathCodec
from repro.addressing.hierarchy import HierarchicalAddressing
from repro.baselines import (
    EcmpScheduler,
    GlobalFirstFitScheduler,
    HederaScheduler,
    PeriodicVlbScheduler,
    TexcpScheduler,
)
from repro.core.scheduler import DardScheduler
from repro.scheduling.base import Scheduler, SchedulerContext
from repro.simulator.flows import FlowRecord
from repro.simulator.network import Network
from repro.topology import build_topology
from repro.workloads import WorkloadSpec, make_arrival_process, make_pattern

def _texcp_flowlet(**kwargs) -> TexcpScheduler:
    return TexcpScheduler(granularity="flowlet", **kwargs)


SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "ecmp": EcmpScheduler,
    "vlb": PeriodicVlbScheduler,
    "hedera": HederaScheduler,
    "gff": GlobalFirstFitScheduler,
    "texcp": TexcpScheduler,
    "texcp-flowlet": _texcp_flowlet,
    "dard": DardScheduler,
}


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by its registry name."""
    if name not in SCHEDULERS:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name](**kwargs)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one simulation scenario."""

    topology: str
    pattern: str
    scheduler: str
    arrival_rate_per_host: float
    duration_s: float
    flow_size_bytes: float
    seed: int = 0
    topology_params: dict = field(default_factory=dict)
    pattern_params: dict = field(default_factory=dict)
    scheduler_params: dict = field(default_factory=dict)
    network_params: dict = field(default_factory=dict)
    #: arrival-process kind: ``poisson`` (the paper's baseline),
    #: ``empirical`` (heavy-tailed sizes/gaps), or ``incast-barrier``
    #: (synchronized bursts); see ``repro.workloads.scenarios``.
    arrival: str = "poisson"
    arrival_params: dict = field(default_factory=dict)
    #: after arrivals stop, keep simulating until all flows finish or this
    #: much extra time elapses (flows admitted late still need to drain).
    drain_limit_s: float = 600.0
    #: failure schedule: ("fail" | "restore", time_s, node_u, node_v).
    link_events: tuple = ()


@dataclass
class ScenarioResult:
    """Completed-flow records plus control-plane accounting."""

    config: ScenarioConfig
    records: List[FlowRecord]
    flows_generated: int
    sim_time_s: float
    control_bytes: float
    control_messages: int
    control_bytes_by_kind: Dict[str, float]
    peak_elephants: int = 0
    dard_shifts: int = 0
    #: DARD only: the fleet-wide shift journal, one ``(time, host,
    #: flow id, from index, to index)`` tuple per shift in event order —
    #: the reference twins (``repro.validation.twins``) compare these.
    dard_shift_log: tuple = ()

    @property
    def fcts(self) -> List[float]:
        return [r.fct for r in self.records]

    @property
    def path_switches(self) -> List[int]:
        return [r.path_switches for r in self.records]

    @property
    def path_revisits(self) -> List[int]:
        return [r.path_revisits for r in self.records]

    @property
    def retx_rates(self) -> List[float]:
        return [r.retx_rate for r in self.records]

    @property
    def mean_fct(self) -> float:
        if not self.records:
            return float("nan")
        return sum(self.fcts) / len(self.records)

    @property
    def control_bytes_per_second(self) -> float:
        return self.control_bytes / self.sim_time_s if self.sim_time_s else 0.0


def run_scenario(
    config: ScenarioConfig,
    instrument: Optional[Callable[[Network], None]] = None,
) -> ScenarioResult:
    """Build the full stack, drive the workload, and collect results.

    ``instrument`` (optional) is called with the freshly built
    :class:`Network` before any scheduler, workload, or failure event is
    wired — the seam the validation layer uses to attach invariant
    checkers, register oracles, or (in its self-tests) inject bugs,
    without the runner knowing anything about validation.
    """
    rngs = RngStreams(config.seed)
    topology = build_topology(config.topology, **config.topology_params)
    addressing = HierarchicalAddressing(topology)
    codec = PathCodec(addressing)
    network = Network(topology, **config.network_params)
    if instrument is not None:
        instrument(network)
    scheduler = make_scheduler(config.scheduler, **config.scheduler_params)
    scheduler.attach(
        SchedulerContext(
            network=network,
            codec=codec,
            rng=rngs.stream(f"scheduler:{config.scheduler}"),
        )
    )
    pattern = make_pattern(config.pattern, topology, **config.pattern_params)
    spec = WorkloadSpec(
        arrival_rate_per_host=config.arrival_rate_per_host,
        duration_s=config.duration_s,
        flow_size_bytes=config.flow_size_bytes,
    )
    arrivals = make_arrival_process(
        config.arrival,
        engine=network.engine,
        pattern=pattern,
        spec=spec,
        sink=scheduler.place,
        rng=rngs.stream("arrivals"),
        **config.arrival_params,
    )
    for action, when, u, v in config.link_events:
        if action == "fail":
            network.engine.schedule_at(when, lambda u=u, v=v: network.fail_link(u, v))
        elif action == "restore":
            network.engine.schedule_at(when, lambda u=u, v=v: network.restore_link(u, v))
        else:
            raise ConfigurationError(f"unknown link event action {action!r}")
    arrivals.start()
    network.engine.run_until(config.duration_s)
    # Drain: schedulers keep their periodic control loops alive, so step
    # the clock forward until the admitted flows finish (or we time out).
    deadline = config.duration_s + config.drain_limit_s
    while network.flows and network.engine.now < deadline:
        network.engine.run_until(min(network.engine.now + 5.0, deadline))
    is_dard = isinstance(scheduler, DardScheduler)
    dard_shifts = scheduler.total_shifts() if is_dard else 0
    dard_shift_log = tuple(scheduler.shift_log) if is_dard else ()
    return ScenarioResult(
        config=config,
        records=list(network.records),
        flows_generated=arrivals.flows_generated,
        sim_time_s=network.engine.now,
        control_bytes=scheduler.ledger.total_bytes,
        control_messages=scheduler.ledger.total_messages,
        control_bytes_by_kind=dict(scheduler.ledger.bytes_by_kind),
        peak_elephants=network.peak_elephants,
        dard_shifts=dard_shifts,
        dard_shift_log=dard_shift_log,
    )
