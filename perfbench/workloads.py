"""The benchmark's workloads: each one a ``ScenarioConfig`` built from a seed.

Every workload runs DARD on a 100 Mbps fat-tree through the public
``repro.experiments.run_scenario`` entry point. The seed feeds
``ScenarioConfig.seed`` (arrivals and scheduler jitter) and, for the
storm workload, the failure schedule, which is generated here so that
the program receives a finished ``link_events`` tuple.

``smoke=True`` shrinks every workload to a p=4 fabric and a couple of
simulated seconds, keeping its traffic shape; the benchmark's own tests
use it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional

from repro.common.rng import RngStreams
from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig
from repro.topology import build_topology
from repro.workloads import FailureStormScenario

LINK_BPS = 100 * MBPS


@dataclass(frozen=True)
class Storm:
    """Failure-storm shape; cables are drawn from the workload seed."""

    start_s: float
    wave_interval_s: float
    waves: int
    cables_per_wave: int
    outage_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    pods: int
    pattern: str
    arrival: str
    rate_per_host: float
    #: arrivals stop after this many flows, so every seed offers the same
    #: work; ``duration_s`` leaves room to reach it.
    max_flows: int
    duration_s: float
    flow_size_bytes: float
    arrival_params: dict = field(default_factory=dict)
    storm: Optional[Storm] = None
    drain_limit_s: float = 600.0

    def params(self) -> dict:
        """The workload's parameters, for result provenance."""
        return {
            **asdict(self), "hosts": self.pods**3 // 4, "link_bps": LINK_BPS,
            "scheduler": "dard",
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fabric-p32",
            pods=32,
            pattern="stride",
            arrival="poisson",
            rate_per_host=0.012,
            max_flows=550,
            duration_s=7.0,
            flow_size_bytes=128 * MB,
        ),
        Workload(
            name="elephants-p16",
            pods=16,
            pattern="random",
            arrival="poisson",
            rate_per_host=0.025,
            max_flows=1000,
            duration_s=45.0,
            flow_size_bytes=128 * MB,
        ),
        Workload(
            name="mice-storm-p16",
            pods=16,
            pattern="random",
            arrival="empirical",
            arrival_params={"size_preset": "websearch"},
            rate_per_host=0.8,
            max_flows=8000,
            duration_s=10.5,
            flow_size_bytes=2 * MB,
            storm=Storm(
                start_s=1.0, wave_interval_s=1.0, waves=8, cables_per_wave=4, outage_s=2.0
            ),
        ),
    )
}

#: Smoke-size overrides: the same shapes on a p=4 fabric (16 hosts).
_SMOKE = {
    "fabric-p32": dict(pods=4, rate_per_host=0.5, max_flows=12, duration_s=4.0),
    "elephants-p16": dict(pods=4, rate_per_host=0.5, max_flows=12, duration_s=4.0),
    "mice-storm-p16": dict(
        pods=4,
        rate_per_host=8.0,
        max_flows=200,
        duration_s=2.0,
        storm=Storm(
            start_s=0.5, wave_interval_s=0.5, waves=3, cables_per_wave=1, outage_s=0.5
        ),
    ),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    """The named workload, optionally at smoke size."""
    return replace(WORKLOADS[name], **_SMOKE[name]) if smoke else WORKLOADS[name]


def scenario_config(workload: Workload, seed: int) -> ScenarioConfig:
    """The generated scenario the program receives for ``seed``."""
    topology_params = {"p": workload.pods, "link_bandwidth_bps": LINK_BPS}
    link_events: tuple = ()
    if workload.storm is not None:
        storm = FailureStormScenario(**vars(workload.storm))
        link_events = storm.link_events(
            build_topology("fattree", **topology_params),
            RngStreams(seed).stream("storm"),
        )
    return ScenarioConfig(
        topology="fattree",
        topology_params=topology_params,
        pattern=workload.pattern,
        scheduler="dard",
        arrival_rate_per_host=workload.rate_per_host,
        duration_s=workload.duration_s,
        flow_size_bytes=workload.flow_size_bytes,
        seed=seed,
        arrival=workload.arrival,
        arrival_params={**workload.arrival_params, "max_flows": workload.max_flows},
        drain_limit_s=workload.drain_limit_s,
        link_events=link_events,
    )
