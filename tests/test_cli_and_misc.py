"""Tests for CLI export flags, the analyze subcommand, and miscellaneous
configuration switches not covered elsewhere."""

import csv
import json

import pytest

from repro.cli import main as cli_main
from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.topology import ClosNetwork, FatTree


class TestCliExports:
    def test_run_with_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = cli_main([
            "run", "ablation_sync", "--duration", "25",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert {row["mode"] for row in rows} == {"randomized", "synchronized"}
        data = json.loads(json_path.read_text())
        assert data["experiment_id"] == "ablation_sync"

    def test_compare_paired_flag(self, capsys):
        code = cli_main([
            "compare", "--rate", "0.06", "--duration", "40",
            "--schedulers", "ecmp", "vlb", "--paired",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "paired per-flow statistics" in out

    def test_analyze_fattree(self, capsys):
        assert cli_main(["analyze", "--topology", "fattree", "--pods", "4"]) == 0
        out = capsys.readouterr().out
        assert "bisection" in out and "full" in out

    def test_analyze_clos(self, capsys):
        assert cli_main(["analyze", "--topology", "clos", "--d", "4"]) == 0
        out = capsys.readouterr().out
        assert "ClosNetwork" in out


class TestNetworkConfigSwitches:
    def test_clos_simulation_end_to_end(self):
        """The simulator isn't fat-tree specific: full run on a Clos."""
        topo = ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        src, dst = "h_0_0", "h_2_0"
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        assert len(paths) == 8
        for index in (0, 3, 7):
            net.start_flow(
                src, dst, 10 * MB,
                [net.component(src, dst, paths, index)],
            )
        net.engine.run_until_idle()
        assert len(net.records) == 3
        # All three shared the src access link: ~3x the lone-flow time.
        assert max(r.fct for r in net.records) == pytest.approx(2.4, rel=0.01)

    def test_run_until_idle_hard_limit(self):
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        net.engine.schedule_every(1.0, lambda: None)
        net.engine.run_until_idle(hard_limit=10.0)
        assert net.engine.now == pytest.approx(10.0)


class TestHederaInternals:
    def test_legacy_energy_helper(self):
        """The full-recompute energy helper agrees with a hand count."""
        import numpy as np
        from repro.addressing import HierarchicalAddressing, PathCodec
        from repro.baselines import HederaScheduler
        from repro.baselines.hedera import PathSelector
        from repro.scheduling import SchedulerContext

        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        ctx = SchedulerContext(
            network=net,
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )
        scheduler = HederaScheduler()
        scheduler.attach(ctx)
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 500 * MB,
            [net.component("h_0_0_0", "h_1_0_0", paths, 0)],
        )
        assignment = {"h_1_0_0": PathSelector(core=0)}
        energy = scheduler._energy([flow], [50 * MBPS], assignment)
        # One 50 Mbps demand on 100 Mbps links -> max utilization 0.5.
        assert energy == pytest.approx(0.5)
