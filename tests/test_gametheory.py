"""Tests for the congestion game, Theorem 1, and Theorem 2 dynamics."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import MB, MBPS
from repro.gametheory import (
    CongestionGame,
    GameFlow,
    check_theorem1_bound,
    compare_state_vectors,
    game_from_network,
    run_best_response_dynamics,
)
from repro.simulator import Network
from repro.topology import FatTree


def two_link_game(delta=1.0):
    """Two parallel links, capacity 10 each; flows choose either."""
    caps = {"l1": 10.0, "l2": 10.0}
    flows = [GameFlow(i, (("l1",), ("l2",))) for i in range(4)]
    return CongestionGame(caps, flows, delta_bps=delta)


class TestConstruction:
    def test_route_must_use_known_links(self):
        with pytest.raises(ConfigurationError):
            CongestionGame({"l1": 1.0}, [GameFlow(0, (("ghost",),))], 1.0)

    def test_flow_needs_routes(self):
        with pytest.raises(ConfigurationError):
            GameFlow(0, ())

    def test_empty_route_rejected(self):
        with pytest.raises(ConfigurationError):
            GameFlow(0, ((),))

    def test_delta_positive(self):
        with pytest.raises(ConfigurationError):
            two_link_game(delta=0.0)

    def test_capacity_positive(self):
        with pytest.raises(ConfigurationError):
            CongestionGame({"l1": 0.0}, [GameFlow(0, (("l1",),))], 1.0)

    def test_strategy_validation(self):
        game = two_link_game()
        with pytest.raises(ConfigurationError):
            game.validate_strategy((0, 0))
        with pytest.raises(ConfigurationError):
            game.validate_strategy((0, 0, 0, 5))


class TestGameMechanics:
    def test_link_counts(self):
        game = two_link_game()
        counts = game.link_counts((0, 0, 1, 1))
        assert counts == {"l1": 2, "l2": 2}

    def test_bonf_values(self):
        game = two_link_game()
        assert game.link_bonf("l1", 2) == 5.0
        assert game.link_bonf("l1", 0) == float("inf")

    def test_flow_bonf_is_bottleneck(self):
        caps = {"a": 10.0, "b": 100.0}
        game = CongestionGame(caps, [GameFlow(0, (("a", "b"),))], 1.0)
        assert game.flow_bonf((0,), 0) == 10.0

    def test_min_bonf(self):
        game = two_link_game()
        assert game.min_bonf((0, 0, 0, 0)) == 10.0 / 4
        assert game.min_bonf((0, 0, 1, 1)) == 5.0

    def test_state_vector_buckets(self):
        game = two_link_game(delta=1.0)
        # All four flows on l1: BoNF(l1)=2.5 -> bucket 2; l2 unused.
        assert game.state_vector((0, 0, 0, 0)) == (0, 0, 1)
        # Balanced: both links BoNF 5 -> bucket 5.
        assert game.state_vector((0, 0, 1, 1)) == (0, 0, 0, 0, 0, 2)

    def test_compare_state_vectors(self):
        assert compare_state_vectors((0, 1), (1, 0)) < 0
        assert compare_state_vectors((1, 0), (0, 1)) > 0
        assert compare_state_vectors((1, 0), (1,)) == 0  # trailing zeros


class TestBestResponse:
    def test_improving_move_found(self):
        game = two_link_game()
        move = game.best_response((0, 0, 0, 0), 0)
        assert move == 1  # moving to the empty link is a big win

    def test_no_move_at_balance(self):
        game = two_link_game()
        assert game.best_response((0, 0, 1, 1), 0) is None

    def test_delta_gates_small_improvements(self):
        # 3 vs 1 split: mover gains 10/2 - 10/3 = 1.67 < delta 2 -> stay.
        game = two_link_game(delta=2.0)
        assert game.best_response((0, 0, 0, 1), 0) is None
        # With delta 1 the same move is allowed.
        game2 = two_link_game(delta=1.0)
        assert game2.best_response((0, 0, 0, 1), 0) == 1

    def test_is_nash(self):
        game = two_link_game()
        assert game.is_nash((0, 0, 1, 1))
        assert not game.is_nash((0, 0, 0, 0))


class TestTheorem2Dynamics:
    def test_converges_to_nash(self):
        game = two_link_game()
        result = run_best_response_dynamics(game)
        assert result.converged
        assert game.is_nash(result.final)

    def test_every_step_improves_the_mover(self):
        game = two_link_game()
        result = run_best_response_dynamics(game)
        for step in result.steps:
            assert step.bonf_after > step.bonf_before

    def test_every_step_decreases_state_vector(self):
        game = two_link_game()
        result = run_best_response_dynamics(game)
        assert result.steps, "dynamics should have moved at least once"
        for step in result.steps:
            assert step.sv_decreased

    def test_randomized_order_also_converges(self):
        game = two_link_game()
        result = run_best_response_dynamics(game, rng=np.random.default_rng(3))
        assert result.converged
        assert game.is_nash(result.final)

    def test_max_steps_guard(self):
        game = two_link_game()
        with pytest.raises(SimulationError):
            run_best_response_dynamics(game, max_steps=0)

    def test_global_optimum_is_nash(self):
        """Appendix B: the lexicographically smallest strategy is a Nash
        equilibrium too."""
        game = two_link_game()
        optimum = game.global_optimum()
        assert game.is_nash(optimum)
        assert game.min_bonf(optimum) == 5.0

    def test_converged_min_bonf_matches_optimum_on_parallel_links(self):
        game = two_link_game()
        result = run_best_response_dynamics(game)
        assert game.min_bonf(result.final) == game.min_bonf(game.global_optimum())


class TestTheorem1:
    def test_bound_holds_simple(self):
        caps = {("a", "b"): 100.0, ("b", "c"): 50.0}
        demands = [((("a", "b"), ("b", "c")), 1.0), ((("a", "b"),), 1.0)]
        report = check_theorem1_bound(demands, caps)
        assert report.holds

    def test_bound_holds_on_fattree_snapshot(self, fattree4):
        net = Network(fattree4)
        topo = net.topology
        rng = np.random.default_rng(0)
        hosts = sorted(topo.hosts())
        demands = []
        for _ in range(20):
            src, dst = rng.choice(hosts, size=2, replace=False)
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            path = paths[int(rng.integers(len(paths)))]
            full = topo.host_path(src, dst, path)
            demands.append((tuple(zip(full, full[1:])), 1.0))
        report = check_theorem1_bound(demands, net.capacities)
        assert report.holds

    def test_needs_demands(self):
        with pytest.raises(SimulationError):
            check_theorem1_bound([], {})


class TestNetworkBridge:
    def test_snapshot_matches_live_elephants(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 500 * MB,
            [net.component("h_0_0_0", "h_1_0_0", paths, 2)],
        )
        net.engine.run_until(10.5)
        game, strategy = game_from_network(net, delta_bps=10 * MBPS)
        assert len(game.flows) == 1
        assert game.flows[0].flow_id == flow.flow_id
        assert strategy == (2,)

    def test_non_elephants_excluded(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 500 * MB,
            [net.component("h_0_0_0", "h_1_0_0", paths, 0)],
        )
        net.engine.run_until(5.0)  # before promotion
        game, strategy = game_from_network(net, delta_bps=10 * MBPS)
        assert game.flows == [] and strategy == ()

    def test_dard_endpoint_is_nash_of_snapshot(self):
        """After DARD converges, the snapshot game should be at (δ-)Nash."""
        from repro.core import DardScheduler
        from repro.addressing import HierarchicalAddressing, PathCodec
        from repro.scheduling import SchedulerContext

        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        ctx = SchedulerContext(
            network=net,
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(11),
        )
        scheduler = DardScheduler()
        scheduler.attach(ctx)
        pairs = [("h_0_0_0", "h_1_0_0"), ("h_0_0_1", "h_1_0_1"),
                 ("h_0_1_0", "h_2_0_0"), ("h_2_0_1", "h_3_0_0")]
        for src, dst in pairs:
            scheduler.place(src, dst, 2000 * MB)
        net.engine.run_until(90.0)
        game, strategy = game_from_network(net, delta_bps=scheduler.delta_bps)
        assert len(game.flows) == 4
        assert game.is_nash(strategy)
