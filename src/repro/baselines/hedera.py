"""Hedera-style centralized flow scheduling (Al-Fares et al., NSDI 2010).

The paper's "Simulated Annealing" comparison point: every scheduling period
(5 s) the edge switches report elephant flows to a central controller,
which (1) estimates each elephant's *natural demand* — the max-min fair
rate it would get if only host NICs constrained it — and (2) runs simulated
annealing to place elephants on paths minimizing the most-loaded link, then
pushes flow-table updates to the switches.

Faithful to both Hedera and the DARD paper's re-implementation notes:

* the annealer searches **per-destination-host** path assignments, not
  per-flow ones ("it does not schedule the traffic in granularity of a
  single flow, but assigns core switches to destination hosts to limit the
  searching space", §4.3.1) — the very restriction that makes it weak when
  intra-pod traffic dominates;
* for Clos networks the assignment names the uphill/downhill aggregation
  pair as well, since a core alone does not determine a Clos path (§4.3.2);
  a :class:`PathSelector` covers both cases uniformly;
* control messages are ledgered at the paper's sizes (80 B reports, 72 B
  updates) for the Fig. 15 overhead comparison.

New flows start on ECMP paths — Hedera only ever reassigns elephants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.scheduling.base import Scheduler, SchedulerContext
from repro.scheduling.messages import MESSAGE_SIZES
from repro.simulator.flows import Flow, FlowComponent
from repro.topology.paths import EqualCostPaths, SwitchPath
from repro.baselines.ecmp import hash_components, rehash

DEFAULT_SCHEDULING_INTERVAL_S = 5.0
DEFAULT_ANNEALING_ITERATIONS = 1000
#: the annealer's starting temperature; it cools geometrically to 1e-3.
INITIAL_TEMPERATURE = 1.0
_DEMAND_EPS = 1e-9


# ---------------------------------------------------------------------------
# Demand estimation (Hedera §IV-A)
# ---------------------------------------------------------------------------

def estimate_demands(
    flow_pairs: Sequence[Tuple[str, str]],
    max_rounds: int = 100,
) -> List[float]:
    """Natural demand of each flow as a fraction of host NIC bandwidth.

    Alternates sender and receiver passes: senders divide their unit NIC
    equally among their unconverged flows; receivers that would be
    oversubscribed cap their incoming flows to an equal share, marking them
    converged. Converges to the max-min fair allocation of the hosts-only
    network (switch links assumed non-blocking), which Hedera uses as each
    flow's bandwidth requirement.
    """
    n = len(flow_pairs)
    demand = [0.0] * n
    converged = [False] * n
    by_src: Dict[str, List[int]] = {}
    by_dst: Dict[str, List[int]] = {}
    for i, (src, dst) in enumerate(flow_pairs):
        by_src.setdefault(src, []).append(i)
        by_dst.setdefault(dst, []).append(i)

    for _ in range(max_rounds):
        previous = list(demand)
        # Sender pass: spread leftover NIC capacity over unconverged flows.
        for indices in by_src.values():
            fixed = sum(demand[i] for i in indices if converged[i])
            free = [i for i in indices if not converged[i]]
            if free:
                share = max(0.0, 1.0 - fixed) / len(free)
                for i in free:
                    demand[i] = share
        # Receiver pass: cap oversubscribed receivers, converging the capped.
        for indices in by_dst.values():
            total = sum(demand[i] for i in indices)
            if total <= 1.0 + _DEMAND_EPS:
                continue
            # Kept as an ascending list (indices is built in flow order):
            # the budget subtractions below are float ops, so their order
            # must not depend on set hash order.
            limited = list(indices)
            budget = 1.0
            while True:
                share = budget / len(limited)
                small = [i for i in limited if demand[i] < share - _DEMAND_EPS]
                if not small:
                    break
                for i in small:
                    limited.remove(i)
                    budget -= demand[i]
            for i in limited:
                demand[i] = share
                converged[i] = True
        if all(abs(demand[i] - previous[i]) < _DEMAND_EPS for i in range(n)):
            break
    return demand


# ---------------------------------------------------------------------------
# Per-destination path selectors (the annealer's search space)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSelector:
    """A destination's assigned route choice, topology-family agnostic.

    ``core`` indexes the turning point (a core switch for inter-pod paths,
    an aggregation switch for intra-pod ones); ``up`` and ``down`` break
    remaining ties in Clos/3-tier topologies where a core does not uniquely
    determine the aggregation switches. All indices wrap modulo the number
    of available choices, so one selector applies from any source ToR.
    """

    core: int
    up: int = 0
    down: int = 0

    def apply(self, paths: Sequence[SwitchPath], alive: Sequence[int]) -> int:
        """Resolve this selector to one of ``alive``, ascending indices
        into a concrete equal-cost path set ``paths``."""
        if not alive:
            raise ValueError("empty path set")
        if len(paths[alive[0]]) != 5:
            # Intra-pod (3-hop) or same-ToR (1-hop): only one level of choice.
            return alive[self.core % len(alive)]
        keep = set(alive)
        by_core: Dict[str, List[Tuple[int, SwitchPath]]] = {}
        for i, p in enumerate(paths):
            if i in keep:
                by_core.setdefault(p[2], []).append((i, p))
        cores = sorted(by_core)
        via = by_core[cores[self.core % len(cores)]]
        ups = sorted({p[1] for _, p in via})
        up = ups[self.up % len(ups)]
        via = [(i, p) for i, p in via if p[1] == up]
        downs = sorted({p[3] for _, p in via})
        down = downs[self.down % len(downs)]
        for i, p in via:
            if p[3] == down:
                return i
        raise ValueError("selector resolution failed")  # pragma: no cover


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

class HederaScheduler(Scheduler):
    """Centralized demand-estimation + simulated-annealing scheduling."""

    name = "hedera"

    def __init__(
        self,
        scheduling_interval_s: float = DEFAULT_SCHEDULING_INTERVAL_S,
        annealing_iterations: int = DEFAULT_ANNEALING_ITERATIONS,
    ) -> None:
        super().__init__()
        self.scheduling_interval_s = scheduling_interval_s
        self.annealing_iterations = annealing_iterations
        self._assignments: Dict[str, PathSelector] = {}
        # Memo for selector resolution: (src ToR, dst ToR, selector) -> links.
        self._links_cache: Dict[tuple, List[Tuple[str, str]]] = {}
        #: (src host, dst host) -> (path set, alive indices), for the
        #: current round only.
        self._round_paths: Dict[Tuple[str, str], Tuple[EqualCostPaths, Sequence[int]]] = {}

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        ctx.engine.schedule_every(self.scheduling_interval_s, self._schedule_round)
        ctx.network.link_failed_listeners.append(self._on_link_failed)
        ctx.network.link_restored_listeners.append(self._on_link_restored)

    def _on_link_failed(self, u: str, v: str) -> None:
        # The fabric re-hashes immediately (routing re-convergence); the
        # controller re-optimizes at its next scheduling round.
        self._links_cache.clear()
        self.evacuate_failed_link(u, v, lambda alive: rehash(self, alive))

    def _on_link_restored(self, u: str, v: str) -> None:
        self._links_cache.clear()

    # -- placement: plain ECMP until the controller says otherwise ------------

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        return hash_components(self, src, dst)

    # -- the periodic central round ----------------------------------------------

    def _schedule_round(self) -> None:
        network = self.ctx.network
        elephants = network.active_elephants()
        if not elephants:
            return
        # Edge switches report every elephant to the controller.
        self.ledger.record("report", MESSAGE_SIZES.report_to_controller, len(elephants))
        demands = estimate_demands([(f.src, f.dst) for f in elephants])
        nic_bps = min(
            network.capacities[(f.src, network.topology.tor_of(f.src))] for f in elephants
        )
        demand_bps = [d * nic_bps for d in demands]
        # Failures only change between rounds: resolve each host pair's
        # alive paths once per round, not once per annealing move.
        self._round_paths = {}
        assignments = self._anneal(elephants, demand_bps)
        self._assignments.update(assignments)
        self._apply(elephants)

    def _paths_for_flow(self, flow: Flow) -> Tuple[EqualCostPaths, Sequence[int]]:
        key = (flow.src, flow.dst)
        entry = self._round_paths.get(key)
        if entry is None:
            entry = self._round_paths[key] = self.alive_paths(flow.src, flow.dst)
        return entry

    def _flow_path(
        self, flow: Flow, assignment: Dict[str, PathSelector]
    ) -> Tuple[EqualCostPaths, int]:
        """The flow's path set and the index ``assignment`` gives it
        (its current one when its destination has no selector)."""
        paths, alive = self._paths_for_flow(flow)
        selector = assignment.get(flow.dst)
        if selector is None:
            return paths, flow.components[0].index
        return paths, selector.apply(paths, alive)

    def _energy(
        self,
        elephants: Sequence[Flow],
        demand_bps: Sequence[float],
        assignment: Dict[str, PathSelector],
    ) -> float:
        """Max expected switch-link utilization under an assignment."""
        network = self.ctx.network
        load: Dict[Tuple[str, str], float] = {}
        for flow, demand in zip(elephants, demand_bps):
            paths, index = self._flow_path(flow, assignment)
            path = paths[index]
            for link in zip(path, path[1:]):
                load[link] = load.get(link, 0.0) + demand
        if not load:
            return 0.0
        return max(total / network.capacities[link] for link, total in load.items())

    def _random_selector(self) -> PathSelector:
        rng = self.ctx.rng
        return PathSelector(
            core=int(rng.integers(0, 1 << 16)),
            up=int(rng.integers(0, 4)),
            down=int(rng.integers(0, 4)),
        )

    def _anneal(
        self, elephants: Sequence[Flow], demand_bps: Sequence[float]
    ) -> Dict[str, PathSelector]:
        """Simulated annealing over per-destination selectors.

        Moves are evaluated incrementally: changing one destination's
        selector only re-routes the flows headed to that destination, so
        each iteration applies a load delta for those flows and re-reads
        the max utilization, reverting on rejection.
        """
        rng = self.ctx.rng
        network = self.ctx.network
        dsts = sorted({f.dst for f in elephants})
        flows_by_dst: Dict[str, List[Tuple[Flow, float]]] = {}
        for flow, demand in zip(elephants, demand_bps):
            flows_by_dst.setdefault(flow.dst, []).append((flow, demand))
        current = {
            dst: self._assignments.get(dst, self._random_selector()) for dst in dsts
        }
        load: Dict[Tuple[str, str], float] = {}
        for flow, demand in zip(elephants, demand_bps):
            for link in self._flow_links(flow, current[flow.dst]):
                load[link] = load.get(link, 0.0) + demand

        # Energy: sum of squared link utilizations. Same minimizer as
        # "spread the demand evenly", but smooth — unlike raw
        # max-utilization it gives the annealer a gradient instead of a
        # plateau (Hedera's own energy, exceeded demand on oversubscribed
        # links, plays the same role in the original system). Maintained
        # incrementally as moves touch links.
        energy = 0.0
        for link, total in load.items():
            energy += (total / network.capacities[link]) ** 2

        def shift_dst(dst: str, selector: PathSelector, sign: float) -> float:
            """Apply a load change; returns the energy delta it caused."""
            delta = 0.0
            for flow, demand in flows_by_dst[dst]:
                for link in self._flow_links(flow, selector):
                    cap = network.capacities[link]
                    old = load.get(link, 0.0)
                    new = old + sign * demand
                    load[link] = new
                    delta += (new / cap) ** 2 - (old / cap) ** 2
            return delta

        best = dict(current)
        best_energy = energy
        iterations = self.annealing_iterations
        if iterations <= 0:
            return best
        cooling = math.exp(math.log(1e-3) / iterations)  # T: 1 -> 1e-3
        temperature = INITIAL_TEMPERATURE
        for _ in range(iterations):
            dst = dsts[int(rng.integers(len(dsts)))]
            proposed = self._random_selector()
            previous = current[dst]
            delta = shift_dst(dst, previous, -1.0) + shift_dst(dst, proposed, +1.0)
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
                current[dst] = proposed
                energy += delta
                if energy < best_energy:
                    best = dict(current)
                    best_energy = energy
            else:
                shift_dst(dst, proposed, -1.0)
                shift_dst(dst, previous, +1.0)
            temperature *= cooling
        return best

    def _flow_links(
        self, flow: Flow, selector: PathSelector
    ) -> List[Tuple[str, str]]:
        topo = self.ctx.topology
        key = (topo.tor_of(flow.src), topo.tor_of(flow.dst), selector)
        links = self._links_cache.get(key)
        if links is None:
            paths, alive = self._paths_for_flow(flow)
            path = paths[selector.apply(paths, alive)]
            links = list(zip(path, path[1:]))
            self._links_cache[key] = links
        return links

    def _apply(self, elephants: Sequence[Flow]) -> None:
        """Push the chosen assignment: reroute elephants that moved."""
        network = self.ctx.network
        for flow in elephants:
            if not flow.active:
                continue
            paths, index = self._flow_path(flow, self._assignments)
            if index == flow.components[0].index:
                continue
            network.reroute_flow(flow, [network.component(flow.src, flow.dst, paths, index)])
            # One table update per switch along the new path.
            self.ledger.record("update", MESSAGE_SIZES.update_from_controller, paths.hops + 1)
