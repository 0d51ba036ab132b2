"""Periodic flow-level Valiant Load Balancing (the paper's pVLB, §4.2).

Plain flow-level VLB forwards each flow through a random core (random
aggregation pair in a Clos network) and, like ECMP, can strand elephants on
a collided path forever. The paper therefore evaluates a modified version
that re-picks a random path for every flow each :data:`REPICK_INTERVAL_S`
(10 s). The periodic switch avoids permanent collisions but costs a window
of retransmitted bytes per switch — which is why pVLB ends up performing
close to ECMP overall (§4.3.2).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.scheduling.base import Scheduler, SchedulerContext
from repro.simulator.flows import FlowComponent

REPICK_INTERVAL_S = 10.0


class PeriodicVlbScheduler(Scheduler):
    """VLB with periodic random path re-selection."""

    name = "vlb"

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        ctx.engine.schedule_every(REPICK_INTERVAL_S, self._repick_all)
        ctx.network.link_failed_listeners.append(self._on_link_failed)

    def _on_link_failed(self, u: str, v: str) -> None:
        self.evacuate_failed_link(u, v, self._random_index)

    def _random_index(self, alive: Sequence[int]) -> int:
        return alive[int(self.ctx.rng.integers(len(alive)))]

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        paths, alive = self.alive_paths(src, dst)
        return [self.ctx.network.component(src, dst, paths, self._random_index(alive))]

    def _repick_all(self) -> None:
        """Give every live multi-path flow a fresh random path."""
        network = self.ctx.network
        for flow in network.active_flows():
            paths, alive = self.alive_paths(flow.src, flow.dst)
            if len(paths) < 2:
                continue
            index = self._random_index(alive)
            if index == flow.components[0].index:
                continue  # same draw; no actual switch happened
            network.reroute_flow(flow, [network.component(flow.src, flow.dst, paths, index)])
