"""Tests for the convergence study and paired per-flow comparison."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.experiments import (
    ScenarioConfig,
    paired_comparison,
    run_scenario,
)
from repro.gametheory import convergence_study, random_game_on
from repro.topology import FatTree

import numpy as np


class TestConvergenceStudy:
    def test_rows_per_size(self):
        rows = convergence_study(flow_counts=(2, 4), trials=5, seed=0)
        assert [r.num_flows for r in rows] == [2, 4]
        for row in rows:
            assert row.trials == 5
            assert row.max_steps >= row.mean_steps >= 0

    def test_poa_reported_for_small_games(self):
        rows = convergence_study(flow_counts=(3,), trials=5, seed=1)
        row = rows[0]
        assert row.mean_poa is not None
        # Nash can never beat the optimum.
        assert row.mean_poa <= 1.0 + 1e-9
        # ... and the paper's claim: the gap is small in practice.
        assert row.worst_poa >= 0.5

    def test_poa_skipped_when_too_big(self):
        # 64 flows x 4 routes each = 4^64 strategies: way over the limit.
        rows = convergence_study(flow_counts=(64,), trials=2, seed=2)
        assert rows[0].mean_poa is None

    def test_random_game_on_structure(self):
        topo = FatTree(p=4)
        game = random_game_on(topo, 5, np.random.default_rng(0))
        assert len(game.flows) == 5
        for flow in game.flows:
            assert len(flow.routes) in (2, 4)  # intra- or inter-pod

    def test_steps_grow_with_flows(self):
        rows = convergence_study(flow_counts=(2, 16), trials=10, seed=3)
        assert rows[1].mean_steps >= rows[0].mean_steps


class TestPairedComparison:
    # 128 MB at 100 Mbps: flows last >= 10.24 s, so they actually become
    # elephants and DARD has something to schedule.
    BASE = dict(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        arrival_rate_per_host=0.06,
        duration_s=90.0,
        flow_size_bytes=128 * MB,
        seed=6,
    )

    def _run(self, scheduler, **overrides):
        return run_scenario(ScenarioConfig(scheduler=scheduler, **{**self.BASE, **overrides}))

    def test_pairing_and_direction(self):
        ecmp = self._run("ecmp")
        dard = self._run("dard")
        cmp = paired_comparison(ecmp, dard)
        assert cmp.flows == len(ecmp.records)
        # DARD (B) should win on more flows than it loses and improve the
        # paired mean.
        assert cmp.b_win_fraction >= 0.4
        assert cmp.paired_improvement > 0
        assert "paired improvement" in cmp.summary()

    def test_self_comparison_is_zero(self):
        a = self._run("ecmp")
        b = self._run("ecmp")
        cmp = paired_comparison(a, b)
        assert cmp.mean_delta_s == pytest.approx(0.0, abs=1e-9)
        assert cmp.b_win_fraction == 0.0

    def test_mismatched_workloads_rejected(self):
        a = self._run("ecmp")
        b = self._run("ecmp", seed=7)
        assert len(a.records) == a.flows_generated
        assert len(b.records) == b.flows_generated
        with pytest.raises(ConfigurationError, match="different workloads"):
            paired_comparison(a, b)

    def test_unfinished_flows_blame_the_drain_cutoff(self):
        """Same seed and parameters, but the drain cutoff leaves different
        flows unfinished on each side: the error says so, instead of
        blaming the workload."""
        short = dict(
            arrival_rate_per_host=0.1, duration_s=20.0, seed=0, drain_limit_s=5.0
        )
        ecmp = self._run("ecmp", **short)
        dard = self._run("dard", **short)
        assert (len(ecmp.records), ecmp.flows_generated) == (3, 31)
        assert (len(dard.records), dard.flows_generated) == (7, 31)
        with pytest.raises(ConfigurationError) as error:
            paired_comparison(ecmp, dard)
        message = str(error.value)
        assert "different workloads" not in message
        assert "A (ecmp) completed 3 of 31 generated flows" in message
        assert "B (dard) completed 7 of 31 generated flows" in message
        assert "drain cutoff t=25 s" in message
        assert "drain_limit_s=5" in message
