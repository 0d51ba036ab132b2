"""Failure-injection tests: link failures and recovery across the stack.

The paper's fully distributed design implies graceful degradation — a dead
link shows up in the very switch state DARD already polls (zero bandwidth,
hence zero BoNF), so hosts route around it without any new machinery.
These tests exercise that story plus every baseline's reaction.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.baselines import (
    EcmpScheduler,
    HederaScheduler,
    PeriodicVlbScheduler,
    TexcpScheduler,
)
from repro.core import DardScheduler
from repro.scheduling import SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree

from tests.conftest import flow_path, pair_component


def make_ctx(scheduler_cls, seed=0, **kwargs):
    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    ctx = SchedulerContext(
        network=Network(topo),
        codec=PathCodec(HierarchicalAddressing(topo)),
        rng=np.random.default_rng(seed),
    )
    scheduler = scheduler_cls(**kwargs)
    scheduler.attach(ctx)
    return ctx, scheduler


class TestNetworkFailureMechanics:
    def test_failed_link_reports_zero_bandwidth(self):
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        net.fail_link("core_0_0", "agg_0_0")
        state = net.link_state("core_0_0", "agg_0_0")
        assert state.bandwidth_bps == 0.0
        assert state.bonf == 0.0
        # Both directions are down.
        assert not net.link_is_up("agg_0_0", "core_0_0")

    def test_flow_on_failed_path_stalls(self):
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        path = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")[0]
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 50 * MB, [pair_component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until(1.0)
        assert flow.rate_bps > 0
        net.fail_link(path[1], path[2])  # agg -> core on its path
        net.engine.run_until(2.0)
        assert flow.rate_bps == 0.0
        assert flow.active  # stalled, not dead

    def test_restore_resumes_transfer(self):
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        path = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")[0]
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 50 * MB, [pair_component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.fail_link(path[1], path[2])
        net.engine.run_until(5.0)
        assert flow.remaining_bytes == pytest.approx(50 * MB)
        net.restore_link(path[1], path[2])
        net.engine.run_until_idle()
        assert net.records and net.records[0].fct > 4.0  # stall time included

    def test_fail_unknown_link_rejected(self):
        net = Network(FatTree(p=4))
        with pytest.raises(SimulationError):
            net.fail_link("h_0_0_0", "core_0_0")

    def test_fail_and_restore_idempotent(self):
        net = Network(FatTree(p=4))
        net.fail_link("core_0_0", "agg_0_0")
        net.fail_link("core_0_0", "agg_0_0")
        assert len(net.failed_links) == 2
        net.restore_link("core_0_0", "agg_0_0")
        net.restore_link("core_0_0", "agg_0_0")
        assert not net.failed_links

    def test_listeners_fire(self):
        net = Network(FatTree(p=4))
        events = []
        net.link_failed_listeners.append(lambda u, v: events.append(("down", u, v)))
        net.link_restored_listeners.append(lambda u, v: events.append(("up", u, v)))
        net.fail_link("core_0_0", "agg_0_0")
        net.restore_link("core_0_0", "agg_0_0")
        assert events == [("down", "core_0_0", "agg_0_0"), ("up", "core_0_0", "agg_0_0")]

    def test_path_alive(self):
        net = Network(FatTree(p=4))
        path = ("tor_0_0", "agg_0_0", "core_0_0", "agg_1_0", "tor_1_0")
        assert net.path_alive(path)
        net.fail_link("core_0_0", "agg_1_0")
        assert not net.path_alive(path)


class TestSchedulerReactions:
    def _long_flow(self, ctx, scheduler, src="h_0_0_0", dst="h_1_0_0"):
        return scheduler.place(src, dst, 500 * MB)

    def test_ecmp_rehashes_immediately(self):
        ctx, scheduler = make_ctx(EcmpScheduler)
        flow = self._long_flow(ctx, scheduler)
        ctx.engine.run_until(1.0)
        path = flow_path(ctx.topology, flow)
        ctx.network.fail_link(path[2], path[3])  # agg->core or core->agg hop
        ctx.engine.run_until(1.5)
        assert flow.rate_bps > 0  # moved to a live path
        assert ctx.network.path_alive(flow_path(ctx.topology, flow))

    def test_vlb_repicks_off_dead_path(self):
        ctx, scheduler = make_ctx(PeriodicVlbScheduler)
        flow = self._long_flow(ctx, scheduler)
        ctx.engine.run_until(1.0)
        path = flow_path(ctx.topology, flow)
        ctx.network.fail_link(path[2], path[3])
        ctx.engine.run_until(1.5)
        assert ctx.network.path_alive(flow_path(ctx.topology, flow))

    def test_new_placements_avoid_dead_paths(self):
        ctx, scheduler = make_ctx(EcmpScheduler, seed=3)
        ctx.network.fail_link("agg_0_0", "core_0_0")
        for _ in range(20):
            flow = self._long_flow(ctx, scheduler)
            assert ctx.network.path_alive(flow_path(ctx.topology, flow))

    def test_dard_routes_around_failure_via_monitoring(self):
        """No extra machinery: the dead path's BoNF reads 0, so Algorithm 1
        shifts the elephant to a live path at the next scheduling round."""
        ctx, scheduler = make_ctx(DardScheduler, seed=5)
        flow = self._long_flow(ctx, scheduler)
        ctx.engine.run_until(12.0)  # promoted; daemon + monitor exist
        path = flow_path(ctx.topology, flow)
        ctx.network.fail_link(path[2], path[3])
        ctx.engine.run_until(13.0)
        assert flow.rate_bps == 0.0  # stalled right after the cut
        ctx.engine.run_until(30.0)  # a couple of scheduling rounds later
        assert flow.rate_bps > 0
        assert ctx.network.path_alive(flow_path(ctx.topology, flow))

    def test_texcp_drains_dead_path(self):
        ctx, scheduler = make_ctx(TexcpScheduler, seed=2)
        flow = self._long_flow(ctx, scheduler)
        ctx.engine.run_until(1.0)
        assert len(flow.components) == 4
        dead = flow_path(ctx.topology, flow)
        ctx.network.fail_link(dead[2], dead[3])
        ctx.engine.run_until(3.0)
        assert all(
            ctx.network.path_alive(flow_path(ctx.topology, flow, i))
            for i in range(len(flow.components))
        )
        assert flow.rate_bps > 0

    def test_hedera_reoptimizes_after_failure(self):
        ctx, scheduler = make_ctx(HederaScheduler, seed=4, annealing_iterations=300)
        flows = [
            self._long_flow(ctx, scheduler, s, d)
            for s, d in [("h_0_0_0", "h_1_0_0"), ("h_0_0_1", "h_1_0_1")]
        ]
        ctx.engine.run_until(12.0)
        ctx.network.fail_link("agg_0_0", "core_0_0")
        ctx.engine.run_until(20.0)  # immediate rehash + >= 1 controller round
        for flow in flows:
            if flow.active:
                assert ctx.network.path_alive(flow_path(ctx.topology, flow))
                assert flow.rate_bps > 0

    def test_access_link_failure_stalls_until_restored(self):
        """No alternate path exists around a host's own access link."""
        ctx, scheduler = make_ctx(EcmpScheduler)
        flow = self._long_flow(ctx, scheduler)
        ctx.engine.run_until(1.0)
        ctx.network.fail_link("h_0_0_0", "tor_0_0")
        ctx.engine.run_until(5.0)
        assert flow.rate_bps == 0.0 and flow.active
        ctx.network.restore_link("h_0_0_0", "tor_0_0")
        ctx.engine.run_until(6.0)
        assert flow.rate_bps > 0
