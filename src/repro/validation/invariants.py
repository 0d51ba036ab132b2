"""Composable runtime invariant checks.

Each check family is a plain function raising
:class:`~repro.common.errors.InvariantViolation` with the offending link
or flow id on failure. :class:`InvariantChecker` drives them
continuously: it hooks the event engine and, after every N processed
events, runs the one battery, :meth:`InvariantChecker.run_checks`. A
battery first expands every live component's node path once, holding one
equal-cost path set per ToR pair (:func:`live_view`), and hands that view
to each family that reads paths or demands.

The invariants are the paper's correctness claims made executable:

* **link-capacity conservation** — the recount families over the
  network's own state: elephant counters, no over-capacity link and no
  loaded dead link, the persistent load array, the link -> flows index,
  sane byte accounting, and the flow store's rows and rate column. The
  recount derives every link from node paths, never from the rows it
  audits;
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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import InvariantViolation
from repro.gametheory.congestion_game import CongestionGame, compare_state_vectors
from repro.gametheory.theorems import DynamicsResult, nash_certificate
from repro.simulator.flows import Flow
from repro.simulator.maxmin import Demand, LinkId
from repro.simulator.network import Network
from repro.topology.paths import EqualCostPaths

#: Relative slack for saturation / rate comparisons. The allocator works
#: in exact float arithmetic but freeze order can differ between
#: implementations by a few ulps; 1e-6 is far above ulp noise and far
#: below any real violation.
REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# One battery's view of the live flows
# ---------------------------------------------------------------------------

class LiveView(NamedTuple):
    """The live flows as one battery sees them, from node paths only.

    ``paths[flow_id]`` holds each component's host-to-host node path.
    ``links[flow_id]`` (the flow's sorted unique link ids) and ``load``
    (each link's summed component rates) are recounted from those paths,
    never from the link-id rows the network keeps. ``demands`` are the
    string-keyed ``(links, weight)`` demands of the components that cross
    no failed link, exactly the set a fill runs on, and ``owners[i]`` is
    the ``(flow, component index)`` demand ``i`` belongs to.
    """

    paths: Dict[int, List[Tuple[str, ...]]]
    links: Dict[int, List[int]]
    load: np.ndarray
    demands: List[Demand]
    owners: List[Tuple[Flow, int]]


def live_view(network: Network) -> LiveView:
    """Expand every live component's node path once; see :class:`LiveView`.

    Each ToR pair's equal-cost path set is built once per call and
    dropped with it, so a run that never checks keeps no path set.
    """
    topology = network.topology
    tables, tor_of = topology.path_tables(), topology.tor_of
    link_id = network.link_index.ids
    failed = network.failed_links
    pair_paths: Dict[Tuple[str, str], EqualCostPaths] = {}
    paths: Dict[int, List[Tuple[str, ...]]] = {}
    links: Dict[int, List[int]] = {}
    load = [0.0] * len(network.link_index)
    demands: List[Demand] = []
    owners: List[Tuple[Flow, int]] = []
    for flow in network.flows.values():
        pair = (tor_of(flow.src), tor_of(flow.dst))
        pair_set = pair_paths.get(pair)
        if pair_set is None:
            pair_set = pair_paths[pair] = tables.paths(*pair)
        node_paths = paths[flow.flow_id] = []
        flow_links: Set[int] = set()
        for idx, (component, rate) in enumerate(zip(flow.components, flow.component_rates)):
            path = (flow.src,) + pair_set[component.index] + (flow.dst,)
            node_paths.append(path)
            hops = tuple(zip(path, path[1:]))
            for hop in hops:
                link = link_id[hop]
                load[link] += rate
                flow_links.add(link)
            if not (failed and any(hop in failed for hop in hops)):
                demands.append((hops, component.weight))
                owners.append((flow, idx))
        links[flow.flow_id] = sorted(flow_links)
    return LiveView(paths, links, np.array(load), demands, owners)


# ---------------------------------------------------------------------------
# Recounts of the network's own state
# ---------------------------------------------------------------------------

def check_elephant_counters(network: Network, view: LiveView) -> None:
    """Each link's elephant counter equals the live elephants crossing it."""
    expected = np.zeros(len(network.link_index), dtype=np.int64)
    for flow in network.flows.values():
        if flow.is_elephant:
            expected[view.links[flow.flow_id]] += 1
    counters = network._eleph_array
    bad = np.nonzero(counters != expected)[0]
    if bad.size:
        raise InvariantViolation(
            "elephant-counter",
            f"counter {int(counters[bad[0]])} != recount {int(expected[bad[0]])}",
            link=network.link_index.links[int(bad[0])],
        )


def check_link_capacity(network: Network, view: LiveView) -> None:
    """No link carries more than its capacity, and no failed link any rate."""
    load, links = view.load, network.link_index.links
    over = np.nonzero(load > network._cap_array * (1 + 1e-6))[0]
    if over.size:
        link = links[int(over[0])]
        raise InvariantViolation(
            "link-capacity",
            f"allocated {load[over[0]]} over capacity {network.capacities[link]}",
            link=link,
        )
    dead_loaded = np.nonzero(network._failed_mask & (load > 0))[0]
    if dead_loaded.size:
        raise InvariantViolation(
            "dead-link-load",
            f"failed link carries rate {load[dead_loaded[0]]}",
            link=links[int(dead_loaded[0])],
        )


def check_persistent_load(network: Network, view: LiveView) -> None:
    """The persistent per-link load array matches the recount.

    Skipped while a coalesced refill is pending: rates are stale by
    design until it runs.
    """
    if network._realloc_pending:
        return
    stored = network._load_array
    close = np.isclose(view.load, stored, rtol=1e-9, atol=1e-6)
    if not close.all():
        bad = int(np.nonzero(~close)[0][0])
        raise InvariantViolation(
            "persistent-load",
            f"load array {stored[bad]!r} != recount {view.load[bad]!r}",
            link=network.link_index.links[bad],
        )


def check_component_index(network: Network, view: LiveView) -> None:
    """The link -> flows index lists each live flow on exactly its links.

    No stale flow ids and no empty link entries, and the index's own
    flow -> links map must agree with the recount.
    """
    recount = view.links
    expected: Dict[int, Set[int]] = {}
    for flow_id, flow_links in recount.items():
        for link in flow_links:
            expected.setdefault(link, set()).add(flow_id)
    index = network._components
    indexed = index.link_flows()
    if indexed != expected:
        link = min(
            lid for lid in expected.keys() | indexed.keys()
            if indexed.get(lid) != expected.get(lid)
        )
        got, want = indexed.get(link, set()), expected.get(link, set())
        raise InvariantViolation(
            "component-index",
            f"index lists flows {sorted(got)[:5]} where the live flows are "
            f"{sorted(want)[:5]} (stale {sorted(got - want)[:5]}, "
            f"missing {sorted(want - got)[:5]})",
            link=network.link_index.links[link],
        )
    flow_links = index.flow_links()
    if flow_links != recount:
        flow_id = min(
            fid for fid in flow_links.keys() | recount.keys()
            if flow_links.get(fid) != recount.get(fid)
        )
        raise InvariantViolation(
            "component-index",
            f"indexed links {flow_links.get(flow_id)} != recount "
            f"{recount.get(flow_id)}",
            flow_id=flow_id,
        )


def check_byte_accounting(network: Network) -> None:
    """No live flow has negative bytes left, or more than size plus retransmits."""
    for flow in network.flows.values():
        if flow.remaining_bytes < 0:
            raise InvariantViolation(
                "byte-accounting",
                f"negative remaining bytes {flow.remaining_bytes}",
                flow_id=flow.flow_id,
            )
        if flow.remaining_bytes > flow.size_bytes + flow.retransmitted_bytes + 1.0:
            raise InvariantViolation(
                "byte-accounting",
                f"remaining {flow.remaining_bytes} exceeds size+retx "
                f"{flow.size_bytes + flow.retransmitted_bytes}",
                flow_id=flow.flow_id,
            )


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


def check_network_allocation(network: Network, view: LiveView) -> None:
    """KKT-certify the live network's settled component rates.

    Only meaningful at quiescent points (skipped while a coalesced
    reallocation is pending, when rates are stale by design). Flows whose
    every component crosses a dead link carry zero rate and contribute no
    demand — exactly how the reallocator treats them.
    """
    demands, owners = view.demands, view.owners
    if network._realloc_pending or not demands:
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


def check_theorem1_bound_live(network: Network, view: LiveView) -> None:
    """Theorem 1 on the live network: min flow rate >= min link BoNF.

    Applies to the unweighted single-component regime the theorem is
    stated for; flows with weights != 1 or multiple components (TeXCP
    striping) make the bound inapplicable, so their presence skips the
    check. Flows stalled on dead paths contribute no live demand and so
    appear on neither side of the bound — the allocation being certified
    is max-min over exactly the live demand set.
    """
    demands, owners = view.demands, view.owners
    if network._realloc_pending or not demands:
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

def check_flowstore_rows(network: Network) -> None:
    """Each live flow views its own live store row, whose rate is its rate.

    The refill write contract: the rate column is *bit-equal* to the
    left-to-right ``sum(component_rates)``, always — both are rewritten
    together at every membership change and refill. That the rows are
    exactly as many as the live flows is :func:`check_flowstore_balance`'s
    to check.
    """
    store = network.flow_store
    for flow in network.flows.values():
        row = flow.store_row
        if not 0 <= row < store.size or int(store.flow_id[row]) != flow.flow_id:
            raise InvariantViolation(
                "flow-store",
                f"flow views row {row}, which the store's {store.size} "
                "live rows do not hold for it",
                flow_id=flow.flow_id,
            )
        want_rate = sum(flow.component_rates)
        if float(store.rate_bps[row]) != want_rate:
            raise InvariantViolation(
                "flow-store-rate",
                f"rate column {float(store.rate_bps[row])!r} != "
                f"sum(component_rates) {want_rate!r}",
                flow_id=flow.flow_id,
            )


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
    :meth:`verify` after any amount of traffic and path shifting. The
    digest covers each table's :meth:`~repro.switches.flowtable.FlowTable.rules`,
    the ``(value, length, port)`` integers of the buckets lookup reads.
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
                rules = getattr(switch, table_name).rules()
                hasher.update(f"{name}:{table_name}:{rules}\n".encode())
                entries += len(rules)
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


def check_static_forwarding(fabric, codec, network: Network, view: LiveView) -> None:
    """Every live path must still be served by the *static* tables.

    For each live single-path flow, encode its current path into an
    address pair and trace it hop by hop through the fabric — the tables
    installed once at bring-up must reproduce the path a scheduler chose
    arbitrarily many reroutes later.
    """
    for flow in network.flows.values():
        if len(flow.components) != 1:
            continue
        path = view.paths[flow.flow_id][0]
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

class InvariantChecker:
    """Re-check a network's invariants after every N engine events.

    Attaches to the engine's after-event hook, so checks run exactly at
    event boundaries — the quiescent points where the recounts must hold
    (allocation-optimality checks additionally skip themselves while a
    zero-delay reallocation is pending). Violations propagate as
    :class:`~repro.common.errors.InvariantViolation` (or, from the two
    differential oracles, :class:`~repro.common.errors.OracleViolation`)
    out of the engine's ``run_until``, which is how the fuzzer catches
    them. :meth:`run_checks` is the battery.
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
        """Run the check battery once, immediately.

        One :func:`live_view` feeds every family that reads paths or
        demands. The order is fixed: the recounts, the KKT certificate,
        Theorem 1, the live network against the reference allocator, the
        region refill against a global fill, flow-store balance, then
        (with ``include_fabric``, given a fabric) the static tables and
        the forwarding trace. The first violation raises.
        """
        # oracles imports this module, so it is imported at call time.
        from repro.validation.oracles import (
            check_incremental_against_full,
            check_network_against_reference,
        )

        self.checks_run += 1
        network = self.network
        view = live_view(network)
        check_elephant_counters(network, view)
        check_link_capacity(network, view)
        check_persistent_load(network, view)
        check_component_index(network, view)
        check_byte_accounting(network)
        check_flowstore_rows(network)
        check_network_allocation(network, view)
        check_theorem1_bound_live(network, view)
        check_network_against_reference(network, view)
        check_incremental_against_full(network)
        check_flowstore_balance(network)
        if include_fabric and self.fabric is not None:
            self._snapshot.verify(self.fabric)
            if self.codec is not None:
                check_static_forwarding(self.fabric, self.codec, network, view)

    def _on_event(self) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.every_n_events
        self.run_checks(
            include_fabric=(self.checks_run % self.FABRIC_CHECK_PERIOD == 0)
        )
