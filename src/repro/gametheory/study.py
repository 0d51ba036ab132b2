"""Quantitative study of the congestion game's dynamics.

The paper proves convergence in *finitely many* steps (Theorem 2) and
argues the equilibrium's "gap to the optimal solution is likely to be
small in practice" (§1) without quantifying either. This module measures
both over random games whose route sets come from real fat-tree equal-cost
paths:

* steps to converge as a function of the number of flows, and
* the price of anarchy — min-BoNF at the reached Nash equilibrium over
  min-BoNF at the brute-forced optimum (small games only; the optimum is
  exponential to enumerate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.common.rng import RngStreams
from repro.common.units import GBPS, MBPS
from repro.topology.fattree import FatTree
from repro.topology.multirooted import MultiRootedTopology
from repro.gametheory.congestion_game import CongestionGame, GameFlow
from repro.gametheory.theorems import run_best_response_dynamics

#: Brute-forcing the optimum is |routes|^|flows|; cap the search space.
_BRUTE_FORCE_LIMIT = 100_000


@dataclass(frozen=True)
class ConvergenceRow:
    """Aggregate dynamics statistics for one game size."""

    num_flows: int
    trials: int
    mean_steps: float
    max_steps: int
    #: mean/worst Nash-vs-optimum min-BoNF ratio; None when too big to
    #: brute force.
    mean_poa: Optional[float]
    worst_poa: Optional[float]


def random_game_on(
    topology: MultiRootedTopology,
    num_flows: int,
    rng: np.random.Generator,
    delta_bps: float = 10 * MBPS,
) -> CongestionGame:
    """A game whose players route between random ToR pairs of ``topology``."""
    capacities = {}
    for u, v in topology.directed_links():
        if topology.node(u).kind.is_switch and topology.node(v).kind.is_switch:
            capacities[(u, v)] = topology.link(u, v).bandwidth_bps
    tors = sorted(topology.tors())
    flows: List[GameFlow] = []
    for fid in range(num_flows):
        src, dst = rng.choice(tors, size=2, replace=False)
        routes = tuple(
            tuple(zip(p, p[1:])) for p in topology.equal_cost_paths(src, dst)
        )
        flows.append(GameFlow(fid, routes))
    return CongestionGame(capacities, flows, delta_bps)


def _search_space(game: CongestionGame) -> int:
    size = 1
    for flow in game.flows:
        size *= len(flow.routes)
        if size > _BRUTE_FORCE_LIMIT:
            return size
    return size


def convergence_study(
    flow_counts=(2, 4, 8, 16),
    trials: int = 20,
    seed: int = 0,
    topology: Optional[MultiRootedTopology] = None,
) -> List[ConvergenceRow]:
    """Measure steps-to-Nash and price of anarchy per game size."""
    topo = topology if topology is not None else FatTree(p=4, link_bandwidth_bps=GBPS)
    rngs = RngStreams(seed)
    rows = []
    for num_flows in flow_counts:
        steps: List[int] = []
        ratios: List[float] = []
        brute_forceable = True
        for trial in range(trials):
            rng = rngs.stream(f"game:{num_flows}:{trial}")
            game = random_game_on(topo, num_flows, rng)
            result = run_best_response_dynamics(game, rng=rng)
            steps.append(result.num_steps)
            if brute_forceable and _search_space(game) <= _BRUTE_FORCE_LIMIT:
                optimum = game.global_optimum()
                reached = game.min_bonf(result.final)
                best = game.min_bonf(optimum)
                ratios.append(reached / best if best > 0 else 1.0)
            else:
                brute_forceable = False
        rows.append(
            ConvergenceRow(
                num_flows=num_flows,
                trials=trials,
                mean_steps=float(np.mean(steps)),
                max_steps=int(max(steps)),
                mean_poa=float(np.mean(ratios)) if ratios else None,
                worst_poa=float(min(ratios)) if ratios else None,
            )
        )
    return rows
