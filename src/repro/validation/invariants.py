"""Composable runtime invariant checks.

Each check is a plain function raising
:class:`~repro.common.errors.InvariantViolation` with the offending link
or flow id on failure. :class:`InvariantChecker` drives them
continuously: it hooks the event engine and, after every N processed
events, runs one battery — ``Network.check_invariants()``, then each
callable in its ``checks`` list (:data:`DEFAULT_NETWORK_CHECKS`, plus
whatever a caller appends), then the fabric checks. The battery's
recounts expand node paths through ``Network.host_path_at``, which builds
each ToR pair's path set once per battery.

The invariants are the paper's correctness claims made executable:

* **link-capacity conservation** — the base checks ``check_invariants``
  already performs (counter recounts, no over-capacity link, no loaded
  dead link, sane byte accounting);
* **bottleneck-saturation / KKT certificate** — every live demand is
  bottlenecked on a saturated link where its weighted rate is maximal,
  the necessary-and-sufficient optimality condition for weighted max-min
  fairness (Bertsekas & Gallager; the paper's Appendix A assumption);
* **Theorem 1 bound** — min flow rate >= min link BoNF (Appendix A);
* **static-switch-table preservation** — DARD re-routes purely by
  re-encapsulating addresses, so the fabric's tables must never change
  and must still forward every live path (paper §2.3);
* **BoNF monotonicity per DARD round** — each selfish move strictly
  decreases the lexicographic state vector (Theorem 2, Appendix B).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import InvariantViolation
from repro.gametheory.congestion_game import CongestionGame, compare_state_vectors
from repro.gametheory.theorems import DynamicsResult, nash_certificate
from repro.simulator.maxmin import Demand, LinkId
from repro.simulator.network import Network

#: Relative slack for saturation / rate comparisons. The allocator works
#: in exact float arithmetic but freeze order can differ between
#: implementations by a few ulps; 1e-6 is far above ulp noise and far
#: below any real violation.
REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Max-min optimality (KKT / bottleneck-saturation certificate)
# ---------------------------------------------------------------------------

def check_maxmin_certificate(
    demands: Sequence[Demand],
    rates: Sequence[float],
    capacities: Dict[LinkId, float],
    rel_tol: float = REL_TOL,
) -> None:
    """Certify that ``rates`` is *the* weighted max-min allocation.

    The bottleneck condition: an allocation is weighted max-min optimal
    iff it is feasible and every demand crosses some *bottleneck* link
    that (a) is saturated and (b) gives no other crosser a strictly
    larger weighted rate. Checking the certificate is O(nnz) — far
    cheaper than recomputing the allocation — which is what makes it
    usable as a continuous runtime invariant.
    """
    if len(demands) != len(rates):
        raise InvariantViolation(
            "maxmin-kkt", f"{len(demands)} demands but {len(rates)} rates"
        )
    load: Dict[LinkId, float] = {}
    max_norm: Dict[LinkId, float] = {}
    normalized = []
    for (links, weight), rate in zip(demands, rates):
        norm = rate / weight
        normalized.append(norm)
        for link in sorted(set(links)):
            load[link] = load.get(link, 0.0) + rate
            if norm > max_norm.get(link, float("-inf")):
                max_norm[link] = norm
    for link, total in load.items():
        cap = capacities[link]
        if total > cap * (1.0 + rel_tol):
            raise InvariantViolation(
                "maxmin-kkt", f"load {total} exceeds capacity {cap}", link=link
            )
    for j, ((links, _), norm) in enumerate(zip(demands, normalized)):
        if norm < 0:
            raise InvariantViolation(
                "maxmin-kkt", f"demand {j} has negative rate {rates[j]}"
            )
        bottlenecked = False
        for link in links:
            cap = capacities[link]
            saturated = load[link] >= cap * (1.0 - rel_tol)
            is_max = norm >= max_norm[link] * (1.0 - rel_tol) - cap * rel_tol
            if saturated and is_max:
                bottlenecked = True
                break
        if not bottlenecked:
            raise InvariantViolation(
                "maxmin-kkt",
                f"demand {j} (rate {rates[j]}) has no saturated bottleneck "
                "link on which its weighted rate is maximal",
                flow_id=j,
            )


def check_network_allocation(network: Network) -> None:
    """KKT-certify the live network's settled component rates.

    Only meaningful at quiescent points (skipped while a coalesced
    reallocation is pending, when rates are stale by design). Flows whose
    every component crosses a dead link carry zero rate and contribute no
    demand — exactly how the reallocator treats them.
    """
    if network.realloc_pending:
        return
    demands, owners = network.live_demand_view()
    if not demands:
        return
    rates = [flow.component_rates[idx] for flow, idx in owners]
    try:
        check_maxmin_certificate(demands, rates, network.capacities)
    except InvariantViolation as violation:
        if violation.flow_id is not None and violation.flow_id < len(owners):
            flow, idx = owners[violation.flow_id]
            raise InvariantViolation(
                violation.invariant,
                f"flow {flow.flow_id} component {idx}: {violation.detail}",
                link=violation.link,
                flow_id=flow.flow_id,
            ) from None
        raise


def check_theorem1_bound_live(network: Network) -> None:
    """Theorem 1 on the live network: min flow rate >= min link BoNF.

    Applies to the unweighted single-component regime the theorem is
    stated for; flows with weights != 1 or multiple components (TeXCP
    striping) make the bound inapplicable, so their presence skips the
    check. Flows stalled on dead paths contribute no live demand and so
    appear on neither side of the bound — the allocation being certified
    is max-min over exactly the live demand set.
    """
    if network.realloc_pending:
        return
    demands, owners = network.live_demand_view()
    if not demands:
        return
    for (links, weight), (flow, _) in zip(demands, owners):
        if weight != 1.0 or len(flow.components) != 1:
            return
    counts: Dict[LinkId, int] = {}
    for links, _ in demands:
        for link in links:
            counts[link] = counts.get(link, 0) + 1
    min_bonf = min(
        network.capacities[link] / count for link, count in counts.items()
    )
    min_rate = min(
        flow.component_rates[idx] for flow, idx in owners
    )
    if min_rate < min_bonf * (1.0 - REL_TOL) - 1e-6:
        flow, _ = min(owners, key=lambda pair: pair[0].component_rates[pair[1]])
        raise InvariantViolation(
            "theorem1-bound",
            f"min flow rate {min_rate} < min BoNF {min_bonf}",
            flow_id=flow.flow_id,
        )


# ---------------------------------------------------------------------------
# Flow-store row accounting
# ---------------------------------------------------------------------------

def check_flowstore_balance(network: Network) -> None:
    """The columnar store's rows must balance the live flow table.

    Failure storms churn rows hard — every ``fail_link`` stalls flows,
    and every ``restore_link`` lets a burst of them finish and release
    rows — so this is where a leaked or double-freed row would first
    appear. At every quiescent point:

    * the store holds exactly one row per flow the network tracks;
    * started minus completed flows equals the rows still occupied.
    """
    rows = network.flow_store.size
    if rows != len(network.flows):
        raise InvariantViolation(
            "flowstore-balance",
            f"store holds {rows} rows for {len(network.flows)} flows "
            "in the network table",
        )
    occupied = network._stat_flows_started - network._stat_flows_completed
    if occupied != rows:
        raise InvariantViolation(
            "flowstore-balance",
            f"{network._stat_flows_started} started - "
            f"{network._stat_flows_completed} completed = {occupied} "
            f"flows in flight, but the store holds {rows} rows",
        )


# ---------------------------------------------------------------------------
# Static switch tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchTableSnapshot:
    """A content digest of every LPM table in a switch fabric.

    DARD's central data-plane property is that re-routing never touches
    switch state (§2.3): capture a snapshot at fabric bring-up, then
    :meth:`verify` after any amount of traffic and path shifting.
    """

    digest: str
    num_entries: int

    @classmethod
    def capture(cls, fabric) -> "SwitchTableSnapshot":
        hasher = hashlib.sha256()
        entries = 0
        for name in sorted(fabric.switches):
            switch = fabric.switches[name]
            for table_name in ("downhill", "uphill"):
                table = getattr(switch, table_name)
                for entry in table.entries():
                    hasher.update(
                        f"{name}:{table_name}:{entry.prefix}:{entry.port}\n".encode()
                    )
                    entries += 1
        return cls(digest=hasher.hexdigest(), num_entries=entries)

    def verify(self, fabric) -> None:
        """Raise unless the fabric's tables are bit-identical to capture time."""
        current = SwitchTableSnapshot.capture(fabric)
        if current != self:
            raise InvariantViolation(
                "static-tables",
                f"switch tables changed: {self.num_entries} entries "
                f"(digest {self.digest[:12]}) -> {current.num_entries} "
                f"(digest {current.digest[:12]})",
            )


def check_static_forwarding(fabric, codec, network: Network) -> None:
    """Every live path must still be served by the *static* tables.

    For each live single-path flow, encode its current path into an
    address pair and trace it hop by hop through the fabric — the tables
    installed once at bring-up must reproduce the path a scheduler chose
    arbitrarily many reroutes later.
    """
    for flow in network.flows.values():
        if len(flow.components) != 1:
            continue
        path = network.host_path_at(flow.src, flow.dst, flow.components[0].index)
        src_addr, dst_addr = codec.encode(flow.src, flow.dst, path[1:-1])
        traced = fabric.forward_trace(flow.src, src_addr, dst_addr)
        if traced != path:
            raise InvariantViolation(
                "static-forwarding",
                f"fabric forwards {traced!r} but flow rides {path!r}",
                flow_id=flow.flow_id,
            )


# ---------------------------------------------------------------------------
# BoNF monotonicity (Theorem 2 dynamics)
# ---------------------------------------------------------------------------

def check_dynamics_monotone(game: CongestionGame, result: DynamicsResult) -> None:
    """Certify a best-response trajectory against Theorem 2.

    Every step must strictly decrease the lexicographic state vector and
    improve the mover's BoNF by more than δ; the endpoint must carry a
    valid Nash certificate. This is "BoNF monotonicity per DARD round" in
    the game formalization, where it is exact (the live simulator
    overlays arrivals/departures that legitimately move BoNF both ways).
    """
    for i, step in enumerate(result.steps):
        if compare_state_vectors(step.sv_after, step.sv_before) >= 0:
            raise InvariantViolation(
                "bonf-monotonicity",
                f"step {i} (flow {step.flow_index}) did not decrease the "
                f"state vector: {step.sv_before} -> {step.sv_after}",
                flow_id=step.flow_index,
            )
        if step.bonf_after - step.bonf_before <= game.delta_bps - 1e-9:
            raise InvariantViolation(
                "bonf-monotonicity",
                f"step {i} improved BoNF by only "
                f"{step.bonf_after - step.bonf_before} (< delta {game.delta_bps})",
                flow_id=step.flow_index,
            )
    if result.converged:
        certificate = nash_certificate(game, result.final)
        if not certificate.is_nash:
            deviator = certificate.first_deviator()
            raise InvariantViolation(
                "nash-endpoint",
                f"converged strategy is not Nash: flow {deviator} still has "
                f"a delta-improving deviation to route "
                f"{certificate.deviations[deviator]}",
                flow_id=deviator,
            )


# ---------------------------------------------------------------------------
# Continuous checking driver
# ---------------------------------------------------------------------------

#: The network-level checks InvariantChecker runs by default, in order.
DEFAULT_NETWORK_CHECKS: Tuple = (
    check_network_allocation,
    check_theorem1_bound_live,
)


class InvariantChecker:
    """Re-check a network's invariants after every N engine events.

    Attaches to the engine's after-event hook, so checks run exactly at
    event boundaries — the quiescent points where the base invariants
    must hold (allocation-optimality checks additionally skip themselves
    while a zero-delay reallocation is pending). Violations propagate as
    :class:`~repro.common.errors.InvariantViolation` out of the engine's
    ``run_until``, which is how the fuzzer catches them. The battery runs
    :data:`DEFAULT_NETWORK_CHECKS`; append to :attr:`checks` to add more.
    """

    #: one fabric (snapshot digest + forwarding trace) check per this many
    #: regular batteries — hashing every LPM entry is the battery's one
    #: superlinear piece, and table mutations cannot un-happen, so a lower
    #: cadence loses nothing but discovery latency.
    FABRIC_CHECK_PERIOD = 10

    def __init__(
        self,
        network: Network,
        every_n_events: int = 1,
        fabric=None,
        codec=None,
    ) -> None:
        self.network = network
        self.every_n_events = max(1, int(every_n_events))
        self.checks = list(DEFAULT_NETWORK_CHECKS)
        self.fabric = fabric
        self.codec = codec
        self.checks_run = 0
        self._countdown = self.every_n_events
        self._snapshot: Optional[SwitchTableSnapshot] = None
        if fabric is not None:
            self._snapshot = SwitchTableSnapshot.capture(fabric)

    def attach(self) -> "InvariantChecker":
        """Start checking after engine events; returns self for chaining."""
        self.network.engine.add_after_event_hook(self._on_event)
        return self

    def detach(self) -> None:
        """Stop checking (idempotent removal of the engine hook)."""
        self.network.engine.remove_after_event_hook(self._on_event)

    def run_checks(self, include_fabric: bool = True) -> None:
        """Run the check battery once, immediately."""
        self.checks_run += 1
        self.network.check_invariants()
        for check in self.checks:
            check(self.network)
        if include_fabric and self.fabric is not None:
            self._snapshot.verify(self.fabric)
            if self.codec is not None:
                check_static_forwarding(self.fabric, self.codec, self.network)

    def _on_event(self) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.every_n_events
        self.run_checks(
            include_fabric=(self.checks_run % self.FABRIC_CHECK_PERIOD == 0)
        )
