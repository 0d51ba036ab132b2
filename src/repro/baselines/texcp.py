"""TeXCP: distributed, load-responsive packet-level traffic engineering
(Kandula et al., SIGCOMM 2005; compared against DARD in paper §4.3.3).

Each ToR pair runs an agent that stripes its traffic across all available
paths and adapts the split ratios toward less-utilized paths using probe
feedback. The paper ports TeXCP to the datacenter by shrinking the probe
interval (RTTs are ~ms or smaller) and, lacking flowlets, schedules at
packet granularity — our flows therefore carry *all* paths simultaneously
as weighted components, and the simulator's reordering model charges the
resulting TCP retransmissions (Fig. 14).

Adaptation follows TeXCP's load balancer: every control interval (five
probe intervals, as required by the TeXCP paper) each agent measures path
utilization ``u_i`` and moves split weight toward paths below the mean:

    x_i <- x_i + kappa * x_i * (u_bar - u_i) / u_bar        (u_bar > 0)

with a floor keeping every path alive for exploration, then renormalizes.
Weight changes are pure re-weightings (``count_switch=False``) — TeXCP
never performs discrete per-flow path switches.

**Flowlet granularity** (``granularity="flowlet"``) implements the paper's
future-work hypothesis (§4.3.3): scheduling TCP packet *bursts* instead of
individual packets eliminates reordering, because consecutive flowlets are
separated by idle gaps longer than the cross-path delay spread (Sinha et
al., HotNets 2004). Each flow then rides a single path at a time, redrawn
from the agent's split ratios every control interval — switching between
flowlets is seamless (no window loss, no reordering), but load balancing
becomes granular, which is the trade-off the comparison bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.scheduling.base import Scheduler, SchedulerContext
from repro.simulator.flows import Flow, FlowComponent
from repro.topology.paths import EqualCostPaths, SwitchPath

#: the datacenter-scale probe interval (RTTs are ~ms or smaller).
PROBE_INTERVAL_S = 0.05
#: five probe intervals per control interval, as TeXCP requires.
CONTROL_INTERVAL_S = 5.0 * PROBE_INTERVAL_S
#: the load balancer's gain.
KAPPA = 0.4
MIN_RATIO = 0.02


@dataclass
class TexcpAgent:
    """Split-ratio state for one (source ToR, destination ToR) pair."""

    src_tor: str
    dst_tor: str
    paths: EqualCostPaths
    ratios: List[float] = field(default_factory=list)
    flow_ids: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.ratios:
            self.ratios = [1.0 / len(self.paths)] * len(self.paths)

    def rebalance(self, utils: List[float]) -> None:
        """One TeXCP control-interval update of the split ratios."""
        mean = sum(r * u for r, u in zip(self.ratios, utils))
        if mean <= 0:
            return
        updated = [
            max(MIN_RATIO, r + KAPPA * r * (mean - u) / mean)
            for r, u in zip(self.ratios, utils)
        ]
        total = sum(updated)
        self.ratios = [r / total for r in updated]


class TexcpScheduler(Scheduler):
    """Packet-granularity multipath striping with adaptive split ratios."""

    name = "texcp"

    def __init__(self, granularity: str = "packet") -> None:
        super().__init__()
        if granularity not in ("packet", "flowlet"):
            raise ValueError(
                f"granularity must be 'packet' or 'flowlet', got {granularity!r}"
            )
        self.granularity = granularity
        self._agents: Dict[Tuple[str, str], TexcpAgent] = {}

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        ctx.network.flow_completed_listeners.append(self._forget_flow)
        ctx.engine.schedule_every(CONTROL_INTERVAL_S, self._control_round)

    # -- placement ---------------------------------------------------------------

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        topo = self.ctx.topology
        src_tor, dst_tor = topo.tor_of(src), topo.tor_of(dst)
        paths = topo.equal_cost_paths(src_tor, dst_tor)
        if len(paths) == 1:
            return [self.ctx.network.component(src, dst, paths, 0)]
        agent = self._agents.get((src_tor, dst_tor))
        if agent is None:
            agent = TexcpAgent(src_tor, dst_tor, paths)
            self._agents[(src_tor, dst_tor)] = agent
        if self.granularity == "flowlet":
            return [self._flowlet_component(src, dst, agent)]
        return self._striped_components(src, dst, agent)

    def _alive(self, src: str, dst: str, agent: TexcpAgent) -> List[int]:
        """The indices of the agent's paths up from ``src`` to ``dst``."""
        network = self.ctx.network
        if not network.failed_links:
            return list(range(len(agent.paths)))
        topo = self.ctx.topology
        return [
            i for i, path in enumerate(agent.paths)
            if network.path_alive(topo.host_path(src, dst, path))
        ]

    def _flowlet_component(self, src: str, dst: str, agent: TexcpAgent) -> FlowComponent:
        """One path drawn from the agent's split ratios (flowlet mode)."""
        network = self.ctx.network
        candidates = self._alive(src, dst, agent)
        if not candidates:
            return network.component(src, dst, agent.paths, 0)
        weights = [agent.ratios[i] for i in candidates]
        total = sum(weights)
        probabilities = [w / total for w in weights]
        index = int(self.ctx.rng.choice(len(candidates), p=probabilities))
        return network.component(src, dst, agent.paths, candidates[index])

    def place(self, src: str, dst: str, size_bytes: float) -> Flow:
        flow = super().place(src, dst, size_bytes)
        topo = self.ctx.topology
        agent = self._agents.get((topo.tor_of(src), topo.tor_of(dst)))
        if agent is not None and len(agent.paths) > 1:
            agent.flow_ids.add(flow.flow_id)
        return flow

    def _striped_components(
        self, src: str, dst: str, agent: TexcpAgent
    ) -> List[FlowComponent]:
        """Components over the agent's paths, skipping any that are down."""
        network = self.ctx.network
        components = [
            network.component(src, dst, agent.paths, i, agent.ratios[i])
            for i in self._alive(src, dst, agent)
        ]
        if not components:
            # Everything is down (e.g. access link): pin to the first path
            # and stall until the failure heals.
            components = [network.component(src, dst, agent.paths, 0)]
        return components

    # -- the distributed control loop --------------------------------------------

    def _path_utilization(self, path: SwitchPath) -> float:
        """Probe result: the most utilized switch link along a path.

        A failed hop reads as fully overloaded (probes are lost), so the
        load balancer drains the path's split ratio organically.
        """
        network = self.ctx.network
        if network.failed_links and not all(
            network.link_is_up(u, v) for u, v in zip(path, path[1:])
        ):
            return 2.0
        return max(
            (network.utilization(u, v) for u, v in zip(path, path[1:])),
            default=0.0,
        )

    def _control_round(self) -> None:
        network = self.ctx.network
        for agent in self._agents.values():
            if not agent.flow_ids:
                continue
            utils = [self._path_utilization(p) for p in agent.paths]
            before = list(agent.ratios)
            agent.rebalance(utils)
            # Converged agents barely move; skip the no-op re-weighting
            # (a real TeXCP agent would likewise leave its splitters alone) —
            # unless a flow is sitting on a path that just died.
            changed = max(abs(a - b) for a, b in zip(before, agent.ratios)) >= 0.005
            for flow_id in sorted(agent.flow_ids):
                flow = network.flows.get(flow_id)
                if flow is None:
                    agent.flow_ids.discard(flow_id)
                    continue
                dead = network.failed_links and not {
                    c.index for c in flow.components
                } <= set(self._alive(flow.src, flow.dst, agent))
                if not changed and not dead:
                    continue
                if self.granularity == "flowlet":
                    component = self._flowlet_component(flow.src, flow.dst, agent)
                    if component.index == flow.components[0].index:
                        continue
                    # Flowlet switches land between bursts: no window loss,
                    # no reordering — but they are path switches and are
                    # counted as such.
                    network.reroute_flow(
                        flow, [component], count_switch=True, retx_penalty=False
                    )
                else:
                    components = self._striped_components(flow.src, flow.dst, agent)
                    network.reroute_flow(
                        flow, components, count_switch=False, retx_penalty=False
                    )

    def _forget_flow(self, flow: Flow) -> None:
        topo = self.ctx.topology
        agent = self._agents.get((topo.tor_of(flow.src), topo.tor_of(flow.dst)))
        if agent is not None:
            agent.flow_ids.discard(flow.flow_id)
