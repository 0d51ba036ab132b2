"""Tests that walk the paper's own worked examples, step by step.

Table 1's rounds are replayed move-by-move in the congestion game: the
exact BoNF vectors, the exact shifting pairs, and the exact stopping
condition. The other design-section claims (§2.2-2.4) get targeted
checks: BoNF of an empty link, monitor sharing, and the first/last-hop
exclusion rationale.
"""

import numpy as np
import pytest

from repro.common.units import GBPS, MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import DardScheduler
from repro.gametheory import CongestionGame, GameFlow
from repro.scheduling import SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree


def _routes(topo, src_tor, dst_tor):
    return tuple(tuple(zip(p, p[1:])) for p in topo.equal_cost_paths(src_tor, dst_tor))


@pytest.fixture(scope="module")
def table1_game():
    """The Figure 1 instance as a congestion game: three flows, unit-
    bandwidth links, everyone initially through core 1 (our core_0_0)."""
    topo = FatTree(p=4, link_bandwidth_bps=GBPS)
    capacities = {}
    for u, v in topo.directed_links():
        if topo.node(u).kind.is_switch and topo.node(v).kind.is_switch:
            capacities[(u, v)] = 1.0  # unit bandwidth, as in the example
    flows = [
        GameFlow(0, _routes(topo, "tor_0_0", "tor_1_0")),  # Flow0: E11->E21
        GameFlow(1, _routes(topo, "tor_0_1", "tor_1_1")),  # Flow1: E13->E24
        GameFlow(2, _routes(topo, "tor_2_0", "tor_1_1")),  # Flow2: E32->E23
    ]
    game = CongestionGame(capacities, flows, delta_bps=1e-6)
    # Route index of the path through core_0_0 for each flow: paths are
    # ordered (agg asc, core asc), so index 0 is via agg_x_0 / core_0_0.
    initial = (0, 0, 0)
    return game, initial


class TestTable1Rounds:
    def test_round0_initial_vector(self, table1_game):
        """Round 0: the global minimum BoNF is 1/3 — three elephants on
        the most congested link (core1-aggr2, ours core_0_0->agg_1_0)."""
        game, strategy = table1_game
        assert game.min_bonf(strategy) == pytest.approx(1 / 3)
        counts = game.link_counts(strategy)
        assert counts[("core_0_0", "agg_1_0")] == 3

    def test_round0_first_shift_estimate(self, table1_game):
        """(E11,E21)'s estimate: moving one flow off path 1 raises the
        minimum BoNF from 1/3 toward 1/2 — the move is taken."""
        game, strategy = table1_game
        move = game.best_response(strategy, 0)
        assert move is not None
        shifted = (move, strategy[1], strategy[2])
        assert game.min_bonf(shifted) == pytest.approx(1 / 2)

    def test_round1_second_shift(self, table1_game):
        """Round 1: with Flow0 moved, (E13,E24) still gains by leaving
        the shared bottleneck; after its move every flow runs at 1."""
        game, strategy = table1_game
        first = game.best_response(strategy, 0)
        strategy = (first, strategy[1], strategy[2])
        second = game.best_response(strategy, 1)
        assert second is not None
        strategy = (strategy[0], second, strategy[2])
        assert game.min_bonf(strategy) == pytest.approx(1.0)

    def test_round2_converged(self, table1_game):
        """Round 2: no source-destination pair wants to move — Nash."""
        game, strategy = table1_game
        strategy = (game.best_response(strategy, 0), strategy[1], strategy[2])
        strategy = (strategy[0], game.best_response(strategy, 1), strategy[2])
        assert game.is_nash(strategy)

    def test_total_moves_exactly_two(self, table1_game):
        """The paper's example converges after exactly two shifts."""
        from repro.gametheory import run_best_response_dynamics

        game, initial = table1_game
        result = run_best_response_dynamics(game, initial)
        assert result.num_steps == 2


class TestDesignSectionClaims:
    def test_empty_link_bonf_is_infinite(self):
        """§2.2: 'If a link has no flow, its BoNF is infinity.'"""
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        assert net.link_state("core_0_0", "agg_0_0").bonf == float("inf")

    def test_monitor_shared_across_same_tor_pair(self):
        """§2.4.1: two elephants between the same ToR pair share one
        monitor; it is released when the last one finishes."""
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        scheduler = DardScheduler()
        scheduler.attach(
            SchedulerContext(
                network=net,
                codec=PathCodec(HierarchicalAddressing(topo)),
                rng=np.random.default_rng(0),
            )
        )
        # Same source host, two destinations on the same remote ToR.
        scheduler.place("h_0_0_0", "h_1_0_0", 200 * MB)
        scheduler.place("h_0_0_0", "h_1_0_1", 200 * MB)
        net.engine.run_until(12.0)
        daemon = scheduler.daemons["h_0_0_0"]
        assert len(daemon.monitors) == 1  # shared, not duplicated
        assert len(daemon.elephants[("tor_0_0", "tor_1_0")]) == 2
        net.engine.run_until(120.0)
        assert len(daemon.monitors) == 0  # released after both finish

    def test_first_last_hop_cannot_be_bypassed(self):
        """§2.2's rationale for excluding host links from BoNF: every
        equal-cost path shares the same first and last hop."""
        topo = FatTree(p=4)
        src, dst = "h_0_0_0", "h_1_0_0"
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        full_paths = [topo.host_path(src, dst, p) for p in paths]
        first_hops = {(p[0], p[1]) for p in full_paths}
        last_hops = {(p[-2], p[-1]) for p in full_paths}
        assert len(first_hops) == 1 and len(last_hops) == 1

    def test_ip_alias_budget(self):
        """§2.3: per-host address counts stay far below the OS alias
        limits the paper cites (255 for pre-2.2 kernels)."""
        for p in (4, 8):
            topo = FatTree(p=p)
            addressing = HierarchicalAddressing(topo)
            host = topo.hosts()[0]
            assert addressing.num_addresses_per_host(host) == p * p // 4
            assert addressing.num_addresses_per_host(host) <= 255
