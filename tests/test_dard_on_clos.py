"""DARD exercised on a Clos network — the topology where a core alone does
NOT determine a path, which is precisely why DARD carries both uphill and
downhill tables (paper §2.3) and why its address pairs must name the
aggregation switches on both sides."""

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import DardScheduler, MonitorRegistry, PathMonitor, switches_to_query
from repro.scheduling import MessageLedger, SchedulerContext
from repro.simulator import Network
from repro.topology import ClosNetwork


@pytest.fixture
def clos_ctx():
    topo = ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2, link_bandwidth_bps=100 * MBPS)
    ctx = SchedulerContext(
        network=Network(topo),
        codec=PathCodec(HierarchicalAddressing(topo)),
        rng=np.random.default_rng(3),
    )
    scheduler = DardScheduler()
    scheduler.attach(ctx)
    return ctx, scheduler


class TestDardOnClos:
    def test_monitor_covers_all_2da_paths(self, clos_ctx):
        ctx, scheduler = clos_ctx
        monitor = PathMonitor("tor_0", "tor_2", MessageLedger(), MonitorRegistry(ctx.network))
        assert len(monitor.paths) == 8  # 2 * D_A

    def test_query_set_covers_paths(self, clos_ctx):
        ctx, _ = clos_ctx
        paths = ctx.topology.equal_cost_paths("tor_0", "tor_2")
        switches = switches_to_query(ctx.topology, paths)
        for path in paths:
            for u, _ in zip(path, path[1:]):
                assert u in switches

    def test_colliding_elephants_spread(self, clos_ctx):
        """Two same-rack elephants colliding on one Clos path separate."""
        ctx, scheduler = clos_ctx
        net = ctx.network
        topo = ctx.topology
        paths = topo.equal_cost_paths("tor_0", "tor_2")
        flows = [
            net.start_flow(
                src, dst, 1000 * MB,
                [net.component(src, dst, paths, 0)],
            )
            for src, dst in [("h_0_0", "h_2_0"), ("h_0_1", "h_2_1")]
        ]
        net.engine.run_until(60.0)
        routes = {f.components[0].index for f in flows}
        assert len(routes) == 2
        for flow in flows:
            assert flow.rate_bps == pytest.approx(100 * MBPS, rel=1e-6)

    def test_shift_address_pairs_name_both_aggs(self, clos_ctx):
        """Re-encapsulation on Clos changes the aggregation switches named
        in the address pair, not just the core."""
        ctx, scheduler = clos_ctx
        topo = ctx.topology
        codec = ctx.codec
        paths = topo.equal_cost_paths("tor_0", "tor_2")
        # Two paths via the SAME core but different uphill aggs.
        by_core = {}
        for p in paths:
            by_core.setdefault(p[2], []).append(p)
        same_core = next(group for group in by_core.values() if len(group) > 1)
        pair_a = codec.encode("h_0_0", "h_2_0", same_core[0])
        pair_b = codec.encode("h_0_0", "h_2_0", same_core[1])
        assert pair_a != pair_b  # core identity alone cannot distinguish

    def test_full_run_stable_on_clos(self, clos_ctx):
        ctx, scheduler = clos_ctx
        rng = np.random.default_rng(0)
        hosts = sorted(ctx.topology.hosts())
        for _ in range(10):
            src, dst = rng.choice(hosts, size=2, replace=False)
            scheduler.place(str(src), str(dst), 300 * MB)
        ctx.engine.run_until(90.0)
        ctx.network.check_invariants()
        finished = ctx.network.records
        assert all(r.path_switches <= 8 for r in finished)
