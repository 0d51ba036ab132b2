"""Tests for the extension features: flowlet-granularity TeXCP (the
paper's stated future work, §4.3.3) and Global First Fit (Hedera's second
placement algorithm)."""

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.baselines import GlobalFirstFitScheduler, TexcpScheduler
from repro.scheduling import SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree

from tests.conftest import flow_path


def make_ctx(scheduler, seed=0):
    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    ctx = SchedulerContext(
        network=Network(topo),
        codec=PathCodec(HierarchicalAddressing(topo)),
        rng=np.random.default_rng(seed),
    )
    scheduler.attach(ctx)
    return ctx


class TestFlowletTexcp:
    def test_granularity_validated(self):
        with pytest.raises(ValueError):
            TexcpScheduler(granularity="jumbogram")

    def test_flowlet_flows_single_path(self):
        scheduler = TexcpScheduler(granularity="flowlet")
        make_ctx(scheduler)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 100 * MB)
        assert len(flow.components) == 1

    def test_flowlet_no_reordering_retx(self):
        scheduler = TexcpScheduler(granularity="flowlet")
        ctx = make_ctx(scheduler)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 100 * MB)
        ctx.engine.run_until(30.0)
        assert flow.reorder_retx_fraction == 0.0
        # Flowlet switches cost no retransmission either.
        assert flow.retransmitted_bytes == 0.0

    def test_flowlet_redraws_follow_ratios(self):
        """Under asymmetric load the agent's ratios skew, and redraws land
        mostly on the lighter paths."""
        scheduler = TexcpScheduler(granularity="flowlet")
        ctx = make_ctx(scheduler, seed=3)
        # Load one path persistently with a competing single-path elephant.
        paths = ctx.topology.equal_cost_paths("tor_0_1", "tor_1_0")
        ctx.network.start_flow(
            "h_0_1_0", "h_1_0_1", 2000 * MB,
            [ctx.network.component("h_0_1_0", "h_1_0_1", paths, 0)],
        )
        scheduler.place("h_0_0_0", "h_1_0_0", 1000 * MB)
        ctx.engine.run_until(20.0)
        agent = scheduler._agents[("tor_0_0", "tor_1_0")]
        # The competing elephant rides core_0_0; the agent's path through
        # that core shares its downhill link and should carry less weight.
        hot_index = next(i for i, p in enumerate(agent.paths) if p[2] == "core_0_0")
        assert agent.ratios[hot_index] < 1.0 / len(agent.paths)

    def test_flowlet_survives_failures(self):
        scheduler = TexcpScheduler(granularity="flowlet")
        ctx = make_ctx(scheduler, seed=1)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 500 * MB)
        ctx.engine.run_until(1.0)
        path = flow_path(ctx.topology, flow)
        ctx.network.fail_link(path[2], path[3])
        ctx.engine.run_until(3.0)
        assert ctx.network.path_alive(flow_path(ctx.topology, flow))
        assert flow.rate_bps > 0


class TestGlobalFirstFit:
    def test_spreads_colliding_elephants(self):
        scheduler = GlobalFirstFitScheduler()
        ctx = make_ctx(scheduler, seed=2)
        pairs = [("h_0_0_0", "h_1_0_0"), ("h_0_0_1", "h_1_0_1"),
                 ("h_0_1_0", "h_1_1_0"), ("h_0_1_1", "h_1_1_1")]
        flows = [scheduler.place(s, d, 800 * MB) for s, d in pairs]
        ctx.engine.run_until(40.0)
        cores = {flow_path(ctx.topology, f)[3] for f in flows if f.active}
        assert len(cores) >= 3

    def test_sticky_when_fit(self):
        """A lone elephant that already fits its path is never moved."""
        scheduler = GlobalFirstFitScheduler()
        ctx = make_ctx(scheduler)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 500 * MB)
        ctx.engine.run_until(35.0)
        assert flow.path_switches == 0

    def test_reports_and_updates_ledgered(self):
        scheduler = GlobalFirstFitScheduler()
        ctx = make_ctx(scheduler, seed=5)
        for s, d in [("h_0_0_0", "h_1_0_0"), ("h_0_0_1", "h_1_0_1")]:
            scheduler.place(s, d, 500 * MB)
        ctx.engine.run_until(30.0)
        assert scheduler.ledger.bytes_by_kind.get("report", 0) > 0

    def test_no_elephants_no_work(self):
        scheduler = GlobalFirstFitScheduler()
        ctx = make_ctx(scheduler)
        scheduler.place("h_0_0_0", "h_1_0_0", 1 * MB)
        ctx.engine.run_until(15.0)
        assert scheduler.ledger.total_bytes == 0

    def test_handles_failures(self):
        scheduler = GlobalFirstFitScheduler()
        ctx = make_ctx(scheduler, seed=6)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 800 * MB)
        ctx.engine.run_until(12.0)
        path = flow_path(ctx.topology, flow)
        ctx.network.fail_link(path[2], path[3])
        ctx.engine.run_until(20.0)
        if flow.active:
            assert ctx.network.path_alive(flow_path(ctx.topology, flow))


class TestRegistry:
    def test_new_schedulers_registered(self):
        from repro.experiments.runner import SCHEDULERS, make_scheduler

        assert "gff" in SCHEDULERS and "texcp-flowlet" in SCHEDULERS
        assert make_scheduler("texcp-flowlet").granularity == "flowlet"
        assert make_scheduler("gff").name == "gff"
