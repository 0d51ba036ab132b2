"""Reference twins and the one harness that dual-runs them.

A *twin* is a second implementation of behaviour the production code
already has — typically the scalar loop a vectorized pass replaced — run
as a whole scenario of its own and compared with the production run bit
for bit. The references live here rather than behind mode flags in
``Network``, ``HostDaemon`` or ``DardScheduler``, and reach a run only
through seams that already exist:

* a per-network install through ``run_scenario(instrument=...)`` —
  :data:`SCALAR_SETTLE` swaps one network's settle / completion-ETA /
  finisher passes for the scalar per-flow loops;
* a scoped class-level install, in the style of
  :meth:`~repro.validation.sanitizer.OwnershipSanitizer.install` —
  :data:`SCALAR_CONTROL_PLANE` puts the original per-monitor DARD control
  plane (no registry, ``PathState`` objects, tuple-keyed FV) in place for
  the duration of one run;
* a config rewrite, for a twin a public option already selects —
  :data:`INCREMENTAL`, which the golden replay runs against the goldens
  pinned to full reallocation.

:func:`twin_run` runs a scenario and its twin, and :func:`compare_runs`
demands the same shift journal, bit-identical flow records and equal
values in every other result field. A divergence raises
:class:`~repro.common.errors.OracleViolation` under the twin's own oracle
name, so the report says which twin diverged. The fuzzer
(:func:`~repro.validation.fuzz.run_case`), the suites ``repro validate``
prints (:func:`twin_suites`) and the golden replay
(:func:`~repro.validation.snapshot.replay_goldens`) all go through it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import OracleViolation
from repro.common.units import MB, MBPS
from repro.core.bonf import PathState
from repro.core.daemon import HostDaemon
from repro.core.monitor import PathMonitor
from repro.core.scheduler import DardScheduler
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.scheduling.base import SchedulerContext
from repro.simulator.flows import Flow
from repro.simulator.network import _BYTES_EPSILON, Network

Instrument = Callable[[Network], None]


# ---------------------------------------------------------------------------
# The scalar settle / ETA / finisher loops
# ---------------------------------------------------------------------------

def settle_reference(network: Network, dt: float) -> None:
    """Scalar settle — the per-flow loop ``Network._settle_store`` replaced.

    Sums ``component_rates`` directly (rather than reading the store's
    rate column) so the dual-run also audits the refill rate scatter.
    """
    for flow in network.flows.values():
        delivered_bits = sum(flow.component_rates) * dt
        if delivered_bits <= 0:
            continue
        delivered_bytes = delivered_bits / 8.0
        wasted = delivered_bytes * flow.reorder_retx_fraction
        flow.remaining_bytes = max(0.0, flow.remaining_bytes - (delivered_bytes - wasted))
        flow.retransmitted_bytes += wasted


def next_completion_eta_reference(network: Network) -> float:
    """Scalar ETA scan — twin of ``Network._next_completion_eta_store``."""
    soonest = float("inf")
    for flow in network.flows.values():
        goodput_bps = sum(flow.component_rates) * (1.0 - flow.reorder_retx_fraction)
        if goodput_bps <= 0:
            continue
        eta = (flow.remaining_bytes * 8.0) / goodput_bps
        soonest = min(soonest, eta)
    return soonest


def find_finishers_reference(network: Network) -> List[Flow]:
    """Scalar finisher scan — twin of ``Network._find_finishers_store``."""
    return [f for f in network.flows.values() if f.remaining_bytes <= _BYTES_EPSILON]


def install_scalar_settle(network: Network) -> None:
    """Swap one network's three per-event passes for the scalar loops.

    Instance attributes shadow the class methods, so only this network
    changes; every other network in the process keeps the store passes.
    """
    network._settle_store = functools.partial(  # type: ignore[method-assign]
        settle_reference, network
    )
    network._next_completion_eta_store = functools.partial(  # type: ignore[method-assign]
        next_completion_eta_reference, network
    )
    network._find_finishers_store = functools.partial(  # type: ignore[method-assign]
        find_finishers_reference, network
    )


# ---------------------------------------------------------------------------
# The scalar DARD control plane
# ---------------------------------------------------------------------------

def flow_vector(daemon: HostDaemon, monitor: PathMonitor) -> List[int]:
    """FV: how many of the host's elephants ride each monitored path.

    Recomputes each flow's path position from its switch-path tuple; the
    production round counts the same flows by ``Flow.monitored_path_index``.
    """
    counts = [0] * len(monitor.paths)
    for flow in daemon.elephants.get((monitor.src_tor, monitor.dst_tor), []):
        if not flow.active:
            continue
        switch_path = tuple(flow.switch_path()[1:-1])
        counts[monitor.path_index(switch_path)] += 1
    return counts


def best_target(states: Sequence[PathState]) -> Optional[int]:
    """The path with the largest BoNF; ties break toward the higher
    post-shift estimate, then the lower index (deterministic)."""
    best = None
    for i, state in enumerate(states):
        if best is None:
            best = i
            continue
        current = states[best]
        if (state.bonf, state.bonf_with_one_more_flow()) > (
            current.bonf,
            current.bonf_with_one_more_flow(),
        ):
            best = i
    return best


def worst_active(states: Sequence[PathState], fv: Sequence[int]) -> Optional[int]:
    """The smallest-BoNF path this host actually sends elephants on.

    A host cannot shift a flow off a path it does not contribute to
    (§2.5's "inactive path" rule).
    """
    worst = None
    for i, state in enumerate(states):
        if fv[i] <= 0:
            continue
        if worst is None or state.bonf < states[worst].bonf:
            worst = i
    return worst


def pick_flow(daemon: HostDaemon, monitor: PathMonitor, path_index: int) -> Optional[Flow]:
    """The host's first active elephant on a path, by switch-path tuple."""
    target = monitor.paths[path_index]
    for flow in daemon.elephants.get((monitor.src_tor, monitor.dst_tor), []):
        if flow.active and tuple(flow.switch_path()[1:-1]) == target:
            return flow
    return None


def schedule_one(daemon: HostDaemon, monitor: PathMonitor) -> bool:
    """Algorithm 1 for one monitor over :class:`PathState` objects."""
    states = monitor.path_states
    max_index = best_target(states)
    min_index = worst_active(states, flow_vector(daemon, monitor))
    if max_index is None or min_index is None or max_index == min_index:
        return False
    estimation = states[max_index].bonf_with_one_more_flow()
    if estimation - states[min_index].bonf <= daemon.delta_bps:
        return False
    flow = pick_flow(daemon, monitor, min_index)
    if flow is None:
        return False
    daemon._shift(flow, monitor, max_index, min_index)
    return True


def query_monitors_scalar(daemon: HostDaemon) -> None:
    """Poll every monitor and build its :class:`PathState` view each time."""
    for monitor in daemon.monitors.values():
        monitor.query()


def scheduling_round_scalar(daemon: HostDaemon) -> int:
    """One selfish round, one monitor at a time; returns shifts made."""
    shifts = 0
    for monitor in list(daemon.monitors.values()):
        if schedule_one(daemon, monitor):
            shifts += 1
    daemon.shifts_performed += shifts
    return shifts


@contextlib.contextmanager
def scalar_control_plane() -> Iterator[None]:
    """Scoped install of the scalar control plane on every DARD scheduler.

    Inside the block, :class:`DardScheduler` attaches without a
    :class:`~repro.core.registry.MonitorRegistry` (each monitor polls the
    network for its own rows) and :class:`HostDaemon` polls and schedules
    through :func:`query_monitors_scalar` and
    :func:`scheduling_round_scalar`. The class attributes are put back
    on exit, also when the run raises.
    """
    attach = DardScheduler.attach

    def attach_without_registry(scheduler: DardScheduler, ctx: SchedulerContext) -> None:
        attach(scheduler, ctx)
        ctx.network.link_state_watchers.remove(scheduler.registry.mark_links_dirty)
        scheduler.registry = None

    patches: Tuple[Tuple[type, str, Callable], ...] = (
        (DardScheduler, "attach", attach_without_registry),
        (HostDaemon, "query_monitors", query_monitors_scalar),
        (HostDaemon, "run_scheduling_round", scheduling_round_scalar),
    )
    originals = [(cls, name, vars(cls)[name]) for cls, name, _ in patches]
    for cls, name, replacement in patches:
        setattr(cls, name, replacement)
    try:
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

def _same_config(config: ScenarioConfig) -> ScenarioConfig:
    """The scenario as given: most twins rewrite no configuration."""
    return config


@dataclass(frozen=True)
class Twin:
    """One reference implementation and how to put it in place for a run.

    Every hook is optional: ``network`` is called on the freshly built
    network (the ``run_scenario`` instrument seam), ``scope`` is entered
    around the whole run, and ``config`` rewrites the scenario first.
    """

    #: names the twin in violation messages.
    oracle: str
    network: Optional[Instrument] = None
    scope: Callable[[], ContextManager[None]] = contextlib.nullcontext
    config: Callable[[ScenarioConfig], ScenarioConfig] = _same_config

    def run(
        self, config: ScenarioConfig, instrument: Optional[Instrument] = None
    ) -> Tuple[ScenarioResult, Network]:
        """Run ``config`` with this twin in place; ``instrument`` goes first."""
        networks: List[Network] = []

        def install(network: Network) -> None:
            networks.append(network)
            if instrument is not None:
                instrument(network)
            if self.network is not None:
                self.network(network)

        with self.scope():
            result = run_scenario(self.config(config), instrument=install)
        return result, networks[0]


def _incremental(config: ScenarioConfig) -> ScenarioConfig:
    params = {**config.network_params, "incremental_realloc": True}
    return dataclasses.replace(config, network_params=params)


SCALAR_CONTROL_PLANE = Twin("controlplane-equivalence", scope=scalar_control_plane)
SCALAR_SETTLE = Twin("settle-equivalence", network=install_scalar_settle)
INCREMENTAL = Twin("incremental-equivalence", config=_incremental)

#: Result fields compared separately (or, for ``config``, never).
_STRUCTURED_FIELDS = ("config", "dard_shift_log", "records")


def compare_runs(production: ScenarioResult, twin: ScenarioResult, oracle: str) -> None:
    """Raise unless two runs of one scenario behaved identically.

    The contract is exact, not approximate: the DARD shift journal tuple
    for tuple, every completed flow's record (FCT endpoints, path
    switches, retransmissions) bit for bit, and every other
    :class:`ScenarioResult` field — control bytes and messages, peak
    elephants, simulated time — equal. Only ``config`` is not compared.
    """
    ours, theirs = production.dard_shift_log, twin.dard_shift_log
    for k, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            raise OracleViolation(
                oracle, f"shift {k} diverges: production {a!r} != twin {b!r}", subject=k
            )
    if len(ours) != len(theirs):
        raise OracleViolation(
            oracle,
            f"shift journal length {len(ours)} (production) != {len(theirs)} (twin)",
        )
    if len(production.records) != len(twin.records):
        raise OracleViolation(
            oracle,
            f"{len(production.records)} completed flows (production) != "
            f"{len(twin.records)} (twin)",
        )
    for ours, theirs in zip(production.records, twin.records):
        if ours != theirs:
            raise OracleViolation(
                oracle,
                f"flow {ours.flow_id}: production record {ours!r} != twin "
                f"{theirs!r} (bit-exact contract)",
                subject=ours.flow_id,
            )
    for field in dataclasses.fields(ScenarioResult):
        if field.name in _STRUCTURED_FIELDS:
            continue
        ours, theirs = getattr(production, field.name), getattr(twin, field.name)
        if ours != theirs:
            raise OracleViolation(
                oracle, f"{field.name} {ours!r} (production) != {theirs!r} (twin)"
            )


def twin_run(
    config: ScenarioConfig,
    twin: Twin,
    primary: Optional[ScenarioResult] = None,
    instrument: Optional[Instrument] = None,
) -> ScenarioResult:
    """Run ``config`` in production and under ``twin``; raise on divergence.

    ``primary`` is the production result when the caller already has one
    (the fuzzer runs production under its invariant battery); otherwise
    it is run here. ``instrument`` reaches the twin's network too, so an
    injected fault lives in both worlds and the comparison only fires on
    divergence of the twinned code. Returns the production result.
    """
    if primary is None:
        primary = run_scenario(config, instrument=instrument)
    result, _ = twin.run(config, instrument=instrument)
    compare_runs(primary, result, twin.oracle)
    return primary


def twin_suites() -> List[Tuple[Twin, List[ScenarioConfig]]]:
    """The dual-runs ``repro validate`` prints: each twin, its scenarios.

    The golden DARD scenario plus a failure-rich stride case for both
    twins; the settle twin adds the golden ECMP scenario (the settle path
    is scheduler-agnostic).
    """
    from repro.validation.snapshot import GOLDEN_SCENARIOS

    storm = ScenarioConfig(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        scheduler="dard",
        arrival_rate_per_host=0.1,
        duration_s=25.0,
        flow_size_bytes=48 * MB,
        seed=7,
        link_events=(
            ("fail", 12.0, "agg_0_0", "core_0_0"),
            ("restore", 18.0, "agg_0_0", "core_0_0"),
        ),
    )
    dard = GOLDEN_SCENARIOS["fattree_dard_random"]
    return [
        (SCALAR_CONTROL_PLANE, [dard, storm]),
        (SCALAR_SETTLE, [GOLDEN_SCENARIOS["fattree_ecmp_stride"], dard, storm]),
    ]
