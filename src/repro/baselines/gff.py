"""Global First Fit — Hedera's simpler placement algorithm (NSDI 2010).

The Hedera paper evaluates two centralized placement algorithms: Simulated
Annealing (re-implemented in :mod:`repro.baselines.hedera`, as the DARD
paper did) and **Global First Fit**, which this module adds as an
extension baseline. Each scheduling round the controller:

1. collects the elephants and estimates their natural demands;
2. walks the elephants in arrival order, *linearly searching* each one's
   equal-cost paths for the first that can fit its whole demand on every
   hop given the reservations made so far; the flow keeps its current path
   when that still fits (no gratuitous moves) and stays put when nothing
   fits.

Greedy and granular where the annealer is global and stochastic — the
classic quality/complexity trade-off the ablation bench measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.scheduling.base import Scheduler, SchedulerContext
from repro.scheduling.messages import MESSAGE_SIZES
from repro.simulator.flows import Flow, FlowComponent
from repro.topology.paths import EqualCostPaths
from repro.baselines.ecmp import hash_components, rehash
from repro.baselines.hedera import estimate_demands

DEFAULT_SCHEDULING_INTERVAL_S = 5.0


class GlobalFirstFitScheduler(Scheduler):
    """Centralized greedy first-fit elephant placement."""

    name = "gff"

    def __init__(self, scheduling_interval_s: float = DEFAULT_SCHEDULING_INTERVAL_S) -> None:
        super().__init__()
        self.scheduling_interval_s = scheduling_interval_s

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        ctx.engine.schedule_every(self.scheduling_interval_s, self._schedule_round)
        ctx.network.link_failed_listeners.append(self._on_link_failed)

    def _on_link_failed(self, u: str, v: str) -> None:
        self.evacuate_failed_link(u, v, lambda alive: rehash(self, alive))

    # -- placement: ECMP until scheduled ----------------------------------------

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        return hash_components(self, src, dst)

    # -- the periodic greedy round -----------------------------------------------

    def _schedule_round(self) -> None:
        network = self.ctx.network
        elephants = sorted(network.active_elephants(), key=lambda f: f.flow_id)
        if not elephants:
            return
        self.ledger.record("report", MESSAGE_SIZES.report_to_controller, len(elephants))
        demands = estimate_demands([(f.src, f.dst) for f in elephants])
        nic_bps = min(
            network.capacities[(f.src, network.topology.tor_of(f.src))]
            for f in elephants
        )
        reserved: Dict[Tuple[str, str], float] = {}
        for flow, demand in zip(elephants, demands):
            demand_bps = demand * nic_bps
            placement = self._first_fit(flow, demand_bps, reserved)
            if placement is None:
                # Nothing fits outright; the flow keeps its path unreserved
                # (it will share whatever it lands on, like Hedera's GFF).
                continue
            paths, index, links = placement
            for link in links:
                reserved[link] = reserved.get(link, 0.0) + demand_bps
            if index != flow.components[0].index:
                network.reroute_flow(
                    flow, [network.component(flow.src, flow.dst, paths, index)]
                )
                # One table update per switch along the new path.
                self.ledger.record(
                    "update", MESSAGE_SIZES.update_from_controller, paths.hops + 1
                )

    def _first_fit(
        self,
        flow: Flow,
        demand_bps: float,
        reserved: Dict[Tuple[str, str], float],
    ) -> Optional[Tuple[EqualCostPaths, int, List[Tuple[str, str]]]]:
        """The first path with headroom for the flow's demand on every hop:
        the pair's path set, the path's index and its links.

        The current path is tried first so converged placements are sticky.
        """
        network = self.ctx.network
        paths, alive = self.alive_paths(flow.src, flow.dst)
        current = flow.components[0].index
        for index in [current] + [i for i in alive if i != current]:
            full = self.ctx.topology.host_path(flow.src, flow.dst, paths[index])
            if network.failed_links and not network.path_alive(full):
                continue
            links = list(zip(full, full[1:]))
            if all(
                reserved.get(link, 0.0) + demand_bps
                <= network.capacities[link] + 1e-6
                for link in links
            ):
                return paths, index, links
        return None
