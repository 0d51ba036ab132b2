"""Snapshot a live network into a congestion game instance.

The players are the current elephant flows; each player's route set is the
equal-cost path set between its ToRs (switch-switch links only, matching
what DARD can actually influence). The resulting game is what DARD's
distributed dynamics are implicitly playing, so tests can compare the
simulator's behaviour against the abstract game's guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.simulator.network import Network
from repro.gametheory.congestion_game import CongestionGame, GameFlow, Strategy


def game_from_network(
    network: Network, delta_bps: float
) -> Tuple[CongestionGame, Strategy]:
    """(game, current strategy) for the network's live elephant flows."""
    topo = network.topology
    capacities: Dict[Tuple[str, str], float] = {}
    for u, v in topo.directed_links():
        if topo.node(u).kind.is_switch and topo.node(v).kind.is_switch:
            capacities[(u, v)] = network.capacities[(u, v)]
    flows: List[GameFlow] = []
    strategy: List[int] = []
    for flow in sorted(network.active_elephants(), key=lambda f: f.flow_id):
        src_tor = topo.tor_of(flow.src)
        dst_tor = topo.tor_of(flow.dst)
        paths = topo.equal_cost_paths(src_tor, dst_tor)
        if len(paths[0]) < 2:
            continue  # same-ToR flows play no routing game
        routes = tuple(tuple(zip(p, p[1:])) for p in paths)
        flows.append(GameFlow(flow_id=flow.flow_id, routes=routes))
        strategy.append(flow.components[0].index)
    return CongestionGame(capacities, flows, delta_bps), tuple(strategy)
