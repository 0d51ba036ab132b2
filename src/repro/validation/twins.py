"""Reference twins and the one harness that dual-runs them.

A *twin* is a second implementation of behaviour the production code
already has — typically the scalar loop a vectorized pass replaced — run
as a whole scenario of its own and compared with the production run bit
for bit. The references live here rather than behind mode flags in
``Network``, ``HostDaemon`` or ``DardScheduler``, and reach a run only
through seams that already exist:

* a per-network install through ``run_scenario(instrument=...)`` —
  :data:`SCALAR_SETTLE` swaps one network's settle / completion-ETA /
  finisher passes for the scalar per-flow loops, and :data:`FULL_REFILL`
  swaps its bottleneck-region refill for the global fill over every
  live demand;
* a scoped class-level install that puts the original class attributes
  back on exit — :data:`SCALAR_CONTROL_PLANE` puts the original
  per-monitor DARD control plane (path states assembled one
  ``link_state`` at a time, ``PathState`` objects, FV keyed by each
  flow's switch-path tuple) in place for the duration of one run.

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

import numpy as np

from repro.common.errors import OracleViolation
from repro.core.bonf import PathState
from repro.core.daemon import HostDaemon
from repro.core.monitor import PathMonitor
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.simulator.flows import Flow
from repro.simulator.maxmin import maxmin_allocate_indexed
from repro.simulator.network import _BYTES_EPSILON, _NO_FILL, Network
from repro.topology.paths import SwitchPath

Instrument = Callable[[Network], None]


# ---------------------------------------------------------------------------
# The scalar settle / ETA / finisher loops
# ---------------------------------------------------------------------------

def settle_reference(network: Network, dt: float) -> None:
    """Scalar settle — the per-flow loop ``Network._settle_store`` replaced.

    Sums ``component_rates`` directly (rather than reading the store's
    rate column) so the dual-run also audits the refills' rate writes.
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
# The global refill
# ---------------------------------------------------------------------------

def full_refill_reference(network: Network) -> None:
    """Global water-fill over every live demand — twin of ``Network._refill_dirty``.

    Re-fills every live flow, not just a bottleneck region, and splices
    fabric-wide: every link loses its load and saturation share, and the
    fill's links get theirs back. Rates, loads, peak utilizations and
    saturation shares must come out bit-identical to the region refill;
    ``filling_iterations`` differs, since one global fill counts a
    symmetric tie across the fabric as one round. ``perf_stats`` counts
    these fills as ``realloc_full``: the fills that are not region refills.
    """
    flows = list(network.flows.values())
    # A region of every live flow with no boundary: the global fill's rows.
    rows, weights, _, _, owners, _ = network._assemble_region(list(network.flows), set(), set())
    fill = maxmin_allocate_indexed(rows, weights, network._cap_array) if rows else _NO_FILL
    network._write_rates(flows, owners, fill.rates)
    # Splice, fabric-wide.
    load = network._load_array
    load[:] = 0.0
    load[fill.links] = fill.loads
    sat = np.full(load.size, np.inf)
    sat[fill.links] = fill.saturation
    network._sat_levels[:] = sat.tolist()
    peak = network._peak_util_array
    np.maximum(peak, load / network._cap_array, out=peak)
    network._stat_fill_iterations += fill.iterations
    for flow in flows:
        if len(flow.components) > 1:
            network._refresh_reordering(flow)
    # A full fill leaves nothing changed.
    network._changed_links.clear()
    network._vacated_links.clear()
    network._changed_flows.clear()


def install_full_refill(network: Network) -> None:
    """Swap one network's region refill for the global fill.

    The network still records every change; the global fill drops the
    marks instead of building a region from them.
    """
    network._refill_dirty = functools.partial(  # type: ignore[method-assign]
        full_refill_reference, network
    )


# ---------------------------------------------------------------------------
# The scalar DARD control plane
# ---------------------------------------------------------------------------

def switch_path(network: Network, flow: Flow) -> SwitchPath:
    """The ToR-to-ToR node path a single-path flow rides, rebuilt from its index."""
    return network.topology.host_path_at(flow.src, flow.dst, flow.components[0].index)[1:-1]


def flow_vector(daemon: HostDaemon, monitor: PathMonitor) -> List[int]:
    """FV: how many of the host's elephants ride each monitored path.

    Recomputes each flow's position among the monitor's paths from its
    switch-path tuple; the production round counts the same flows by
    their component's path index.
    """
    counts = [0] * len(monitor.paths)
    for flow in daemon.elephants.get((monitor.src_tor, monitor.dst_tor), []):
        if not flow.active:
            continue
        counts[monitor.path_index(switch_path(daemon.network, flow))] += 1
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
        if flow.active and switch_path(daemon.network, flow) == target:
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


def path_state_scalar(network: Network, path: Sequence[str]) -> PathState:
    """One switch path's bottleneck, assembled one :meth:`~Network.link_state`
    at a time: its first minimum-BoNF hop, as ``min()`` picks it."""
    state = min(
        (network.link_state(u, v) for u, v in zip(path, path[1:])),
        key=lambda link: link.bonf,
    )
    return PathState(bandwidth_bps=state.bandwidth_bps, flow_numbers=state.elephant_flows)


def query_monitors_scalar(daemon: HostDaemon) -> None:
    """Poll every monitor and rebuild its :class:`PathState` view per link.

    ``refresh`` books the poll's messages; its rows are then replaced by
    the per-link recount, so the production bottleneck kernel has a
    reference in every run of this twin.
    """
    for monitor in daemon.monitors.values():
        monitor.refresh()
        monitor.path_states = [
            path_state_scalar(daemon.network, path) for path in monitor.paths
        ]


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
    """Scoped install of the scalar control plane on every DARD daemon.

    Inside the block, :class:`HostDaemon` polls and schedules through
    :func:`query_monitors_scalar` and :func:`scheduling_round_scalar`.
    The class attributes are put back on exit, also when the run raises.
    """
    patches: Tuple[Tuple[type, str, Callable], ...] = (
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

@dataclass(frozen=True)
class Twin:
    """One reference implementation and how to put it in place for a run.

    Both hooks are optional: ``network`` is called on the freshly built
    network (the ``run_scenario`` instrument seam), and ``scope`` is
    entered around the whole run.
    """

    #: names the twin in violation messages.
    oracle: str
    network: Optional[Instrument] = None
    scope: Callable[[], ContextManager[None]] = contextlib.nullcontext

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
            result = run_scenario(config, instrument=install)
        return result, networks[0]


SCALAR_CONTROL_PLANE = Twin("controlplane-equivalence", scope=scalar_control_plane)
SCALAR_SETTLE = Twin("settle-equivalence", network=install_scalar_settle)
FULL_REFILL = Twin("full-refill-equivalence", network=install_full_refill)

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

    The two golden DARD scenarios (one of them shifts elephants around a
    link failure) for both twins; the settle twin adds the golden ECMP
    scenario (the settle path is scheduler-agnostic).
    """
    from repro.validation.snapshot import GOLDEN_SCENARIOS

    dard = GOLDEN_SCENARIOS["fattree_dard_random"]
    storm = GOLDEN_SCENARIOS["fattree_dard_stride_storm"]
    return [
        (SCALAR_CONTROL_PLANE, [dard, storm]),
        (SCALAR_SETTLE, [GOLDEN_SCENARIOS["fattree_ecmp_stride"], dard, storm]),
    ]
