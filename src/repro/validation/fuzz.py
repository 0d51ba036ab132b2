"""Seeded scenario fuzzing with shrink-on-failure.

Draws random scenarios from the full configuration cross-product
(topology family x size x workload pattern x arrival process x failure
schedule x scheduler x elephant detector), runs each with the invariant
battery attached to the event engine, the differential oracles sampling
the live network and the reference twins dual-running the scenario, and
— on any violation or crash — greedily *shrinks* the scenario to a
minimal still-failing configuration before reporting it.

Every case is a pure function of its integer seed, so a failure report
("seed 1234, config {...}") reproduces exactly with
``repro validate --fuzz --seeds 1 --start-seed 1234``.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.errors import ReproError
from repro.common.rng import RngStreams
from repro.experiments.configio import config_to_dict
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.workloads.scenarios import SIZE_PRESETS, FailureStormScenario

#: Schedulers drawn by the generator (all registered ones).
FUZZ_SCHEDULERS = ("ecmp", "vlb", "hedera", "gff", "texcp", "texcp-flowlet", "dard")

FUZZ_PATTERNS = ("random", "staggered", "stride", "incast")

#: Arrival-process kinds the generator draws, weighted toward the paper's
#: Poisson baseline; "empirical" adds heavy-tailed sizes, "incast-barrier"
#: synchronized bursts (see ``repro.workloads.scenarios``).
FUZZ_ARRIVALS = ("poisson", "empirical", "incast-barrier")

#: (topology kind, params) families; sizes kept small so one case runs in
#: well under a second and a 200-seed sweep stays interactive.
FUZZ_TOPOLOGIES = (
    ("fattree", {"p": 4}),
    ("clos", {"d_i": 4, "d_a": 4, "hosts_per_tor": 2}),
    (
        "threetier",
        {
            "num_cores": 4,
            "num_pods": 2,
            "aggs_per_pod": 2,
            "access_per_pod": 2,
            "hosts_per_access": 2,
        },
    ),
)

#: How often (in engine events) the continuous battery re-checks the
#: network. 1 = after every event; the default trades a ~5x fuzz speedup
#: for catching a transient violation a few events late.
DEFAULT_EVERY_N_EVENTS = 5


def random_scenario(seed: int) -> ScenarioConfig:
    """The deterministic scenario for one fuzz seed."""
    rng = RngStreams(seed).stream("fuzz")
    kind, topo_params = FUZZ_TOPOLOGIES[int(rng.integers(len(FUZZ_TOPOLOGIES)))]
    topo_params = dict(topo_params)
    if kind == "fattree" and rng.random() < 0.25:
        topo_params["p"] = 6
    pattern = FUZZ_PATTERNS[int(rng.integers(len(FUZZ_PATTERNS)))]
    pattern_params: dict = {}
    if pattern == "incast":
        pattern_params = {"targets": int(rng.integers(1, 3))}
    scheduler = FUZZ_SCHEDULERS[int(rng.integers(len(FUZZ_SCHEDULERS)))]
    duration = float(rng.uniform(8.0, 25.0))
    # Arrival process, weighted toward the Poisson baseline.
    arrival = "poisson"
    arrival_params: dict = {}
    arrival_roll = rng.random()
    if arrival_roll < 0.20:
        arrival = "empirical"
        arrival_params = {
            "size_preset": sorted(SIZE_PRESETS)[int(rng.integers(len(SIZE_PRESETS)))]
        }
    elif arrival_roll < 0.35:
        # Explicit barrier period: the default (1/rate, up to 20 s) can
        # exceed the drawn duration and produce a zero-flow case.
        arrival = "incast-barrier"
        arrival_params = {"period_s": float(rng.uniform(0.5, duration / 4))}
    link_events: List[tuple] = []
    failure_roll = rng.random()
    if failure_roll < 0.25:
        # Rolling failure storm: waves of fail/restore over random cables
        # (see FailureStormScenario); always >= 3 fail events, which is
        # what distinguishes a storm from the sporadic schedule below.
        from repro.topology import build_topology

        topology = build_topology(kind, **topo_params)
        storm = FailureStormScenario(
            start_s=float(rng.uniform(1.0, max(2.0, duration / 3))),
            wave_interval_s=float(rng.uniform(1.0, 3.0)),
            waves=int(rng.integers(3, 6)),
            cables_per_wave=int(rng.integers(1, 3)),
            outage_s=float(rng.uniform(0.5, 2.5)),
        )
        link_events = list(storm.link_events(topology, rng))
    elif failure_roll < 0.6:
        # Sporadic failure schedule over switch-switch cables, drawn later
        # than t=1 so some flows exist; half the failures are followed by
        # a restore.
        from repro.topology import build_topology

        topology = build_topology(kind, **topo_params)
        cables = sorted(
            (link.u, link.v)
            for link in topology.links()
            if topology.node(link.u).kind.is_switch
            and topology.node(link.v).kind.is_switch
        )
        for _ in range(int(rng.integers(1, 3))):
            u, v = cables[int(rng.integers(len(cables)))]
            when = float(rng.uniform(1.0, duration))
            link_events.append(("fail", when, u, v))
            if rng.random() < 0.5:
                link_events.append(
                    ("restore", float(rng.uniform(when, duration + 5.0)), u, v)
                )
    network_params: dict = {}
    if rng.random() < 0.2:
        network_params = {"elephant_detector": "predictive"}
    return ScenarioConfig(
        topology=kind,
        topology_params=topo_params,
        pattern=pattern,
        pattern_params=pattern_params,
        scheduler=scheduler,
        arrival_rate_per_host=float(rng.uniform(0.05, 0.2)),
        duration_s=duration,
        flow_size_bytes=float(rng.uniform(2e6, 32e6)),
        seed=int(rng.integers(2**31)),
        network_params=network_params,
        arrival=arrival,
        arrival_params=arrival_params,
        drain_limit_s=90.0,
        link_events=tuple(sorted(link_events, key=lambda e: e[1])),
    )


def inject_capacity_bug(network) -> None:
    """The canonical seeded bug: corrupt one capacity array entry.

    Scales down the dense capacity entries of the first host's access
    cable *after* the dict-shaped compatibility surface was built, so the
    indexed allocator and the string-keyed reference disagree about the
    world — exactly the class of silent divergence the differential
    oracles exist to catch.
    """
    host = min(network.topology.hosts())
    tor = network.topology.tor_of(host)
    for link in ((host, tor), (tor, host)):
        network._cap_array[network.link_index.id_of(link)] *= 0.6
    # Arm a full refill: an incremental network with nothing dirty would
    # otherwise keep its pre-corruption (still consistent) rates and the
    # bug would not manifest until some demand touched the cable.
    network._force_full = True


def inject_storm_bug(network) -> None:
    """Seeded storm bug: the *first* link failure corrupts a capacity entry.

    Models the class of bug storms are uniquely good at finding — state
    that only goes bad on the failure-handling path. A scenario with no
    ``fail`` event runs clean, so shrinking a storm schedule against this
    bug must converge to a single failure event, which is exactly what
    the shrinker's coverage test asserts.
    """
    armed = [True]

    def corrupt_once(u: str, v: str) -> None:
        if armed[0]:
            armed[0] = False
            inject_capacity_bug(network)

    network.link_failed_listeners.append(corrupt_once)


def run_case(
    config: ScenarioConfig,
    corrupt: Optional[Callable] = None,
    every_n_events: int = DEFAULT_EVERY_N_EVENTS,
    sanitize: bool = False,
) -> ScenarioResult:
    """Run one scenario under the full validation battery.

    Attaches an :class:`~repro.validation.invariants.InvariantChecker`
    (base invariants + KKT certificate + Theorem-1 bound + static-table
    preservation) plus the network-vs-reference and incremental-vs-full
    differential oracles to the engine,
    checking every ``every_n_events`` processed events and once
    more after the run drains. ``corrupt`` (used by ``--inject-bug``)
    runs against the freshly built network before any traffic starts.

    A :class:`~repro.validation.oracles.StormOracle` shadows the run:
    every placement and reroute is screened against the failed-link set,
    and flow-store row accounting is re-audited at each fail/restore edge
    and once after the drain.

    The scenario is then dual-run through
    :func:`~repro.validation.twins.twin_run` against the reference twins
    — the scalar control plane for DARD cases, the scalar settle loops
    for every case — and each twin must reproduce the shift journal,
    every flow record and the control accounting exactly. A divergence
    is a finding just like an invariant violation.
    """
    from repro.addressing import HierarchicalAddressing, PathCodec
    from repro.switches import SwitchFabric
    from repro.validation.invariants import InvariantChecker, check_flowstore_balance
    from repro.validation.oracles import (
        StormOracle,
        check_incremental_against_full,
        check_network_against_reference,
    )
    from repro.validation.twins import SCALAR_CONTROL_PLANE, SCALAR_SETTLE, twin_run

    checker_box: List[InvariantChecker] = []
    sanitizer_box: List = []
    storm_oracle = StormOracle()

    def instrument(network) -> None:
        if corrupt is not None:
            corrupt(network)
        addressing = HierarchicalAddressing(network.topology)
        checker = InvariantChecker(
            network,
            every_n_events=every_n_events,
            fabric=SwitchFabric(addressing),
            codec=PathCodec(addressing),
        )
        checker.checks.append(check_network_against_reference)
        checker.checks.append(check_incremental_against_full)
        checker.checks.append(check_flowstore_balance)
        checker.attach()
        checker_box.append(checker)
        if sanitize:
            # Production run only: the reference twins below stay
            # uninstrumented, so their bit-exact comparisons double as
            # the proof that the sanitizer changes nothing. Installed
            # before the storm oracle attaches: the oracle captures
            # bound methods (start_flow, reroute_flow), and those must
            # bind the sanitizer's class-level wrappers, not bypass
            # them.
            from repro.validation.sanitizer import OwnershipSanitizer

            sanitizer_box.append(OwnershipSanitizer(network).install())
        storm_oracle.attach(network)

    try:
        result = run_scenario(config, instrument=instrument)
    finally:
        for sanitizer in sanitizer_box:
            sanitizer.uninstall()
    if checker_box:
        checker_box[0].run_checks()
        checker_box[0].detach()
        storm_oracle.final_check()
        storm_oracle.detach()
    twins = [SCALAR_SETTLE]
    if config.scheduler == "dard":
        twins.insert(0, SCALAR_CONTROL_PLANE)
    for twin in twins:
        # Same world for the twin — including any injected bug — so it
        # only ever fires on divergence of the twinned code.
        twin_run(config, twin, primary=result, instrument=corrupt)
    return result


@dataclass
class FuzzFailure:
    """One failing seed, with its shrunk reproduction."""

    seed: int
    error: str
    config: ScenarioConfig
    shrunk: Optional[ScenarioConfig] = None
    shrink_runs: int = 0

    @property
    def minimal_config(self) -> ScenarioConfig:
        return self.shrunk if self.shrunk is not None else self.config

    def render(self) -> str:
        """Human-readable failure report with the minimal config inline."""
        lines = [f"seed {self.seed}: {self.error}"]
        lines.append(
            f"  minimal reproducing config (after {self.shrink_runs} shrink runs):"
        )
        for key, value in sorted(config_to_dict(self.minimal_config).items()):
            lines.append(f"    {key}: {value!r}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    cases: int = 0
    elapsed_s: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """One-line summary, plus every failure's report when not ok."""
        header = (
            f"fuzz: {self.cases} cases in {self.elapsed_s:.1f}s, "
            f"{len(self.failures)} failure(s)"
        )
        if self.ok:
            return header
        return "\n".join([header] + [f.render() for f in self.failures])


def _case_fails(
    config: ScenarioConfig,
    corrupt: Optional[Callable],
    every_n_events: int,
    sanitize: bool = False,
) -> Optional[str]:
    """Run a case; the one-line failure description, or None if it passes."""
    try:
        run_case(
            config, corrupt=corrupt, every_n_events=every_n_events, sanitize=sanitize
        )
        return None
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    except Exception as error:  # crashes are findings too
        summary = traceback.format_exception_only(type(error), error)[-1].strip()
        return f"crash: {summary}"


def shrink_config(
    config: ScenarioConfig,
    fails: Callable[[ScenarioConfig], bool],
    max_runs: int = 32,
) -> tuple:
    """Greedily minimize a failing config; returns (shrunk, runs_used).

    Tries, in order: dropping failure-schedule events, simplifying the
    scheduler to ECMP, the pattern to random, the arrival process to
    Poisson, the network to its defaults (threshold detection), the
    topology to the p=4 fat-tree, then halving duration and arrival
    rate. Each simplification is kept only if the case still fails; the
    loop repeats to a fixpoint or until ``max_runs`` re-executions are
    spent.
    """
    runs = 0

    def candidates(current: ScenarioConfig):
        for i in range(len(current.link_events)):
            trimmed = current.link_events[:i] + current.link_events[i + 1 :]
            yield dataclasses.replace(current, link_events=trimmed)
        if current.scheduler != "ecmp":
            yield dataclasses.replace(current, scheduler="ecmp", scheduler_params={})
        if current.pattern != "random":
            yield dataclasses.replace(current, pattern="random", pattern_params={})
        if current.arrival != "poisson" or current.arrival_params:
            yield dataclasses.replace(current, arrival="poisson", arrival_params={})
        if current.network_params:
            yield dataclasses.replace(current, network_params={})
        if current.topology != "fattree" or current.topology_params != {"p": 4}:
            # Node names are topology-specific, so the failure schedule
            # cannot survive a topology swap; the per-event drops above
            # already minimize it independently.
            yield dataclasses.replace(
                current,
                topology="fattree",
                topology_params={"p": 4},
                link_events=(),
            )
        if current.duration_s > 4.0:
            yield dataclasses.replace(current, duration_s=round(current.duration_s / 2, 3))
        if current.arrival_rate_per_host > 0.02:
            yield dataclasses.replace(
                current, arrival_rate_per_host=round(current.arrival_rate_per_host / 2, 4)
            )

    current = config
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            if fails(candidate):
                current = candidate
                improved = True
                break
    return current, runs


def run_fuzz(
    seeds: Optional[int] = None,
    budget_s: Optional[float] = None,
    start_seed: int = 0,
    inject_bug: bool = False,
    every_n_events: int = DEFAULT_EVERY_N_EVENTS,
    shrink_failures: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    sanitize: bool = False,
) -> FuzzReport:
    """Sweep seeds (and/or a wall-clock budget) through the validation battery.

    Stops after ``seeds`` cases or once ``budget_s`` wall seconds have
    elapsed, whichever comes first (at least one case always runs). The
    first ``shrink_failures`` failures are shrunk to minimal reproducing
    configs; later ones are reported as-is.
    """
    if seeds is None and budget_s is None:
        seeds = 100
    corrupt = inject_capacity_bug if inject_bug else None
    report = FuzzReport()
    # Wall clock bounds the fuzzing *budget* only; each case is fully
    # determined by its seed, so timing never changes what a seed does.
    started = time.perf_counter()  # dardlint: disable=DET002
    seed = start_seed
    while True:
        if seeds is not None and report.cases >= seeds:
            break
        if (
            budget_s is not None
            and report.cases > 0
            and time.perf_counter() - started >= budget_s  # dardlint: disable=DET002
        ):
            break
        config = random_scenario(seed)
        error = _case_fails(config, corrupt, every_n_events, sanitize)
        report.cases += 1
        if error is not None:
            failure = FuzzFailure(seed=seed, error=error, config=config)
            if len(report.failures) < shrink_failures:
                failure.shrunk, failure.shrink_runs = shrink_config(
                    config,
                    lambda c: _case_fails(c, corrupt, every_n_events, sanitize)
                    is not None,
                )
            report.failures.append(failure)
            if progress is not None:
                progress(f"FAIL seed {seed}: {error}")
        elif progress is not None and report.cases % 25 == 0:
            progress(f"... {report.cases} cases, 0 failures" if report.ok
                     else f"... {report.cases} cases, {len(report.failures)} failures")
        seed += 1
    report.elapsed_s = time.perf_counter() - started  # dardlint: disable=DET002
    return report
