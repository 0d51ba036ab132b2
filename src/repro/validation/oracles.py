"""Differential oracles: two independent implementations must agree.

Four in-run oracles (the whole-scenario reference twins — scalar control
plane, scalar settle loops — live in :mod:`repro.validation.twins`):

* **allocator equivalence** — the vectorized integer-indexed fast path
  (``maxmin_allocate_indexed``, via its string-keyed wrapper) against the
  preserved pre-index implementation ``maxmin_allocate_reference``, the
  same 1e-9 contract the equivalence test suite enforces — plus the KKT
  certificate on the agreed result;
* **live-network equivalence** — a running :class:`Network`'s settled
  component rates against a from-scratch reference allocation over its
  own flow state (catches divergence anywhere in the row assembly /
  caching layer, e.g. a perturbed capacity array entry);
* **incremental vs full** — the region refill's live rates, persistent
  link loads and saturation shares against a from-scratch global fill,
  bit for bit;
* **fluid vs packet** — the fluid simulator's FCTs against the
  packet-level TCP micro-simulator on the documented validation
  scenarios, enforcing the 0.81-1.02x agreement band from
  EXPERIMENTS.md ("Validating the fluid-model substitution").

:class:`StormOracle` screens every placement and reroute against the
failed-link set while auditing flow-store row accounting across
fail/restore churn.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import OracleViolation
from repro.common.units import MB, MBPS
import numpy as np

from repro.simulator.maxmin import (
    Demand,
    LinkId,
    link_loads_indexed,
    maxmin_allocate,
    maxmin_allocate_indexed,
    maxmin_allocate_reference,
)
from repro.simulator.network import Network
from repro.validation.invariants import (
    InvariantChecker,
    LiveView,
    check_flowstore_balance,
    check_maxmin_certificate,
)

#: The documented fluid-vs-packet FCT agreement band: packet/fluid ratio
#: observed across every checked scenario (EXPERIMENTS.md, DESIGN.md).
FCT_AGREEMENT_BAND: Tuple[float, float] = (0.81, 1.02)

#: Slack applied to the band edges — the band endpoints were themselves
#: measured (0.81 and 1.02 are attained), so exact comparisons at the
#: edges need room for float rounding.
_BAND_SLACK = 0.005

#: The validation scenarios: name -> [(src, dst, equal-cost-path index)].
#: These are the exact placements behind the EXPERIMENTS.md table; the
#: fluid-vs-packet bench imports this dict so the two stay in lockstep.
FLUID_VS_PACKET_SCENARIOS: Dict[str, List[Tuple[str, str, int]]] = {
    "single": [("h_0_0_0", "h_1_0_0", 0)],
    "shared_access": [("h_0_0_0", "h_1_0_0", 0), ("h_0_0_0", "h_2_0_0", 2)],
    "core_collision": [("h_0_0_0", "h_1_0_0", 0), ("h_0_1_0", "h_1_1_0", 0)],
    "three_way": [
        ("h_0_0_0", "h_1_0_0", 0),
        ("h_0_0_1", "h_2_0_0", 0),
        ("h_0_1_0", "h_3_0_0", 0),
    ],
    "disjoint": [("h_0_0_0", "h_1_0_0", 0), ("h_0_1_0", "h_2_0_1", 3)],
    # Many-to-one: three senders converge on one receiver's access link,
    # the adversarial incast shape (ratio 0.85 measured, inside the band).
    "incast": [
        ("h_1_0_0", "h_0_0_0", 0),
        ("h_2_0_0", "h_0_0_0", 0),
        ("h_3_0_0", "h_0_0_0", 1),
    ],
}

#: Flow size the agreement band was measured at.
FLUID_VS_PACKET_SIZE_BYTES = 4 * MB


# ---------------------------------------------------------------------------
# Allocator equivalence
# ---------------------------------------------------------------------------

def check_allocator_equivalence(
    demands: Sequence[Demand],
    capacities: Dict[LinkId, float],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-6,
) -> List[float]:
    """Run both allocators on one instance; raise on any divergence.

    Returns the (agreed) rates. Also KKT-certifies the result, so a case
    where both implementations agree on a *wrong* answer still fails.
    """
    fast = maxmin_allocate(demands, capacities)
    reference = maxmin_allocate_reference(demands, capacities)
    if len(fast) != len(reference):
        raise OracleViolation(
            "allocator-equivalence",
            f"{len(fast)} rates from indexed path, {len(reference)} from reference",
        )
    for j, (a, b) in enumerate(zip(fast, reference)):
        if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol):
            raise OracleViolation(
                "allocator-equivalence",
                f"demand {j}: indexed {a!r} != reference {b!r}",
                subject=j,
            )
    if demands:
        check_maxmin_certificate(demands, reference, capacities)
    return fast


def random_allocation_case(
    rng: random.Random,
) -> Tuple[List[Demand], Dict[LinkId, float]]:
    """A random link-set allocation instance (arbitrary incidence shapes)."""
    num_links = rng.randint(2, 40)
    links = [(f"n{i}", f"n{i}'") for i in range(num_links)]
    capacities = {link: rng.uniform(10.0, 1000.0) for link in links}
    demands: List[Demand] = []
    for _ in range(rng.randint(1, 60)):
        k = rng.randint(1, min(6, num_links))
        route = tuple(rng.sample(links, k))
        demands.append((route, rng.uniform(0.1, 5.0)))
    return demands, capacities


def allocator_equivalence_suite(cases: int = 50, seed: int = 0) -> int:
    """Randomized differential sweep of the two allocators; returns cases run."""
    for i in range(cases):
        rng = random.Random(seed * 1_000_003 + i)
        demands, capacities = random_allocation_case(rng)
        try:
            check_allocator_equivalence(demands, capacities)
        except OracleViolation as violation:
            raise OracleViolation(
                violation.oracle,
                f"case seed=({seed},{i}): {violation.detail}",
                subject=violation.subject,
            ) from None
    return cases


def check_network_against_reference(network: Network, view: LiveView) -> None:
    """Oracle the live network's settled rates against the reference allocator.

    Allocates the battery's string-keyed demand set (``view``, rebuilt
    from node paths) over the *capacities dict captured at construction
    time*, so any silent drift in the indexed layer — stale link-id
    caches, a corrupted capacity array entry, wrong owner bookkeeping —
    shows up as a divergence. Skips itself while a reallocation is
    pending (rates are stale by design at those instants).
    """
    if network._realloc_pending or not view.demands:
        return
    expected = maxmin_allocate_reference(view.demands, network.capacities)
    for (flow, idx), want in zip(view.owners, expected):
        got = flow.component_rates[idx]
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6):
            raise OracleViolation(
                "network-vs-reference",
                f"flow {flow.flow_id} component {idx}: live rate {got!r} != "
                f"reference {want!r}",
                subject=flow.flow_id,
            )


def check_incremental_against_full(network: Network) -> None:
    """Oracle the region refill against a from-scratch global fill.

    Bit-exactness, not tolerance: a rate change travels only through
    saturated links, and the region fill replays the boundary's freezes
    in the global fill's order, so every live ``component_rates`` entry,
    every persistent link-load entry and every persistent saturation
    share must equal the global recomputation *bit-for-bit*. The
    boundary replay reads those shares, so they are audited like the
    loads. Any epsilon here means the splice lost a link, kept a stale
    rate or share, or reordered an accumulation — exactly the bugs an
    approximate comparison would mask. No-ops while a realloc is pending.
    """
    if network._realloc_pending:
        return
    # Every live flow in the region and none on the boundary: the rows a
    # global fill runs on.
    rows, weights, _, _, owners, _ = network._assemble_region(list(network.flows), set(), set())
    fill = maxmin_allocate_indexed(rows, weights, network._cap_array)
    expected = fill.rates
    for (flow, idx), want in zip(owners, expected):
        got = flow.component_rates[idx]
        if got != want:
            raise OracleViolation(
                "incremental-vs-full",
                f"flow {flow.flow_id} component {idx}: incremental rate {got!r} "
                f"!= full refill {want!r} (bit-exact contract)",
                subject=flow.flow_id,
            )
    # The load recount is the oracle's own, not the allocator's loads.
    expected_load = link_loads_indexed(rows, expected, len(network.link_index))
    if not np.array_equal(expected_load, network._load_array):
        bad = int(np.flatnonzero(expected_load != network._load_array)[0])
        raise OracleViolation(
            "incremental-vs-full",
            f"persistent load of link {network.link_index.links[bad]} is "
            f"{network._load_array[bad]!r} but a full recount gives "
            f"{expected_load[bad]!r} (bit-exact contract)",
        )
    expected_sat = [float("inf")] * len(network.link_index)
    for link, share in zip(fill.links, fill.saturation):
        expected_sat[link] = share
    sat = network._sat_levels
    if expected_sat != sat:
        bad = next(link for link, share in enumerate(sat) if share != expected_sat[link])
        raise OracleViolation(
            "incremental-vs-full",
            f"saturation share of link {network.link_index.links[bad]} is "
            f"{sat[bad]!r} but a full fill gives {expected_sat[bad]!r} "
            "(bit-exact contract)",
        )


# ---------------------------------------------------------------------------
# Fluid vs packet
# ---------------------------------------------------------------------------

def run_fluid_vs_packet(
    scenarios: Optional[Dict[str, List[Tuple[str, str, int]]]] = None,
    size_bytes: float = FLUID_VS_PACKET_SIZE_BYTES,
    band: Optional[Tuple[float, float]] = FCT_AGREEMENT_BAND,
) -> List[dict]:
    """Run each scenario in both simulators; enforce the agreement band.

    Returns one row per scenario (fluid FCT, packet FCT, ratio). With
    ``band`` set (the default), any scenario whose packet/fluid mean-FCT
    ratio falls outside it raises :class:`OracleViolation` — the fluid
    substitution underlying every reproduction number is then no longer
    trustworthy and the run must fail.
    """
    from repro.packetsim import PacketSimulation
    from repro.topology import FatTree

    if scenarios is None:
        scenarios = FLUID_VS_PACKET_SCENARIOS
    rows: List[dict] = []
    for name, placements in scenarios.items():
        packet_sim = PacketSimulation(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        for src, dst, index in placements:
            packet_sim.add_flow(src, dst, size_bytes, path_index=index)
        packet_mean = sum(r.fct_s for r in packet_sim.run()) / len(placements)

        fluid_net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        topo = fluid_net.topology
        for src, dst, index in placements:
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            fluid_net.start_flow(
                src, dst, size_bytes, [fluid_net.component(src, dst, paths, index)]
            )
        fluid_net.engine.run_until_idle()
        InvariantChecker(fluid_net).run_checks()
        fluid_mean = sum(r.fct for r in fluid_net.records) / len(placements)

        ratio = packet_mean / fluid_mean
        rows.append(
            {
                "scenario": name,
                "flows": len(placements),
                "fluid_fct_s": fluid_mean,
                "packet_fct_s": packet_mean,
                "ratio": ratio,
            }
        )
        if band is not None:
            low, high = band
            if not (low - _BAND_SLACK <= ratio <= high + _BAND_SLACK):
                raise OracleViolation(
                    "fluid-vs-packet",
                    f"FCT ratio {ratio:.4f} outside agreement band "
                    f"[{low}, {high}] (fluid {fluid_mean:.4f}s, "
                    f"packet {packet_mean:.4f}s)",
                    subject=name,
                )
    return rows


# ---------------------------------------------------------------------------
# Storm oracle (routing and row accounting across fail/restore churn)
# ---------------------------------------------------------------------------

class StormOracle:
    """Certify a live network across failure storms.

    Two executable claims, checked continuously while attached:

    * **no flow is ever routed over a failed link** — every
      ``start_flow`` and ``reroute_flow`` is intercepted, and a chosen
      component crossing a cable in ``failed_links`` is a violation
      *unless no fully-alive equal-cost path existed at that instant*.
      The carve-out is the documented stall semantics
      (``Scheduler.alive_paths``): when e.g. a host's access cable is
      down, the flow is placed anyway and stalls until the failure
      heals, as real traffic would — what is never allowed is choosing
      a dead path while a live alternative was on the table;
    * **FlowStore row accounting balances across fail/restore churn** —
      after every ``fail_link`` / ``restore_link`` (the points where
      stalls and completion bursts collide),
      :func:`~repro.validation.invariants.check_flowstore_balance`
      must pass exactly.

    Attach via the runner's ``instrument`` seam before any traffic
    starts; :meth:`final_check` re-audits the books once the run drains.
    Interception is pure observation — no RNG, no state mutation — so an
    attached oracle never changes what a seed does.
    """

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self.placements_checked = 0
        self.reroutes_checked = 0
        self.stalled_placements = 0
        self.failures_seen = 0
        self.restores_seen = 0
        self.balance_checks = 0
        self._orig_start = None
        self._orig_reroute = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, network: Network) -> "StormOracle":
        """Interpose on one network's flow placement and failure hooks."""
        if self.network is not None:
            raise ValueError("StormOracle is already attached")
        self.network = network
        self._orig_start = network.start_flow
        self._orig_reroute = network.reroute_flow
        network.start_flow = self._start_flow  # type: ignore[method-assign]
        network.reroute_flow = self._reroute_flow  # type: ignore[method-assign]
        network.link_failed_listeners.append(self._on_failed)
        network.link_restored_listeners.append(self._on_restored)
        return self

    def detach(self) -> None:
        """Restore the wrapped methods and listeners (idempotent)."""
        network = self.network
        if network is None:
            return
        network.start_flow = self._orig_start  # type: ignore[method-assign]
        network.reroute_flow = self._orig_reroute  # type: ignore[method-assign]
        network.link_failed_listeners.remove(self._on_failed)
        network.link_restored_listeners.remove(self._on_restored)
        self.network = None

    # -- interception -----------------------------------------------------------

    def _start_flow(self, src, dst, size_bytes, components):
        self.placements_checked += 1
        self._check_components(src, dst, components, "placement")
        return self._orig_start(src, dst, size_bytes, components)

    def _reroute_flow(self, flow, components, count_switch=True, retx_penalty=True):
        self.reroutes_checked += 1
        self._check_components(flow.src, flow.dst, components, "reroute")
        return self._orig_reroute(
            flow, components, count_switch=count_switch, retx_penalty=retx_penalty
        )

    def _check_components(self, src, dst, components, kind) -> None:
        network = self.network
        if not network.failed_links:
            return
        topo = network.topology
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        dead = [
            c.index for c in components
            if not network.path_alive(topo.host_path(src, dst, paths[c.index]))
        ]
        if not dead:
            return
        alive = [
            p for p in paths if network.path_alive(topo.host_path(src, dst, p))
        ]
        if alive:
            raise OracleViolation(
                "storm-routing",
                f"{kind} of {src}->{dst} at t={network.now:.3f} rides a "
                f"failed link on path {dead[0]} {paths[dead[0]]!r} while "
                f"{len(alive)} alive equal-cost path(s) existed",
            )
        self.stalled_placements += 1

    def _on_failed(self, u: str, v: str) -> None:
        self.failures_seen += 1
        self._check_balance()

    def _on_restored(self, u: str, v: str) -> None:
        self.restores_seen += 1
        self._check_balance()

    def _check_balance(self) -> None:
        self.balance_checks += 1
        check_flowstore_balance(self.network)

    # -- reporting --------------------------------------------------------------

    def final_check(self) -> None:
        """Audit the books once more; call after the run drains."""
        if self.network is None:
            raise ValueError("StormOracle is not attached")
        self._check_balance()

    def stats(self) -> Dict[str, float]:
        """Interception counters, for reports and coverage assertions."""
        return {
            "storm_placements_checked": float(self.placements_checked),
            "storm_reroutes_checked": float(self.reroutes_checked),
            "storm_stalled_placements": float(self.stalled_placements),
            "storm_failures_seen": float(self.failures_seen),
            "storm_restores_seen": float(self.restores_seen),
            "storm_balance_checks": float(self.balance_checks),
        }
