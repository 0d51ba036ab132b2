"""Tests for DARD: BoNF, monitors, the per-host daemon, and Algorithm 1."""

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import (
    DardScheduler,
    MonitorRegistry,
    PathMonitor,
    PathState,
    switches_to_query,
)
from repro.core.daemon import HostDaemon
from repro.scheduling import MessageLedger, SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree
from repro.validation.twins import flow_vector

from tests.conftest import flow_path


def make_ctx(seed=0, p=4, **scheduler_kwargs):
    topo = FatTree(p=p, link_bandwidth_bps=100 * MBPS)
    ctx = SchedulerContext(
        network=Network(topo),
        codec=PathCodec(HierarchicalAddressing(topo)),
        rng=np.random.default_rng(seed),
    )
    scheduler = DardScheduler(**scheduler_kwargs)
    scheduler.attach(ctx)
    return ctx, scheduler


class TestPathState:
    def test_bonf(self):
        state = PathState(bandwidth_bps=100 * MBPS, flow_numbers=4)
        assert state.bonf == 25 * MBPS

    def test_empty_link_infinite(self):
        assert PathState(bandwidth_bps=100 * MBPS, flow_numbers=0).bonf == float("inf")

    def test_one_more_flow_estimate(self):
        state = PathState(bandwidth_bps=100 * MBPS, flow_numbers=1)
        assert state.bonf_with_one_more_flow() == 50 * MBPS

    def test_str_renders(self):
        assert "inf" in str(PathState(bandwidth_bps=1.0, flow_numbers=0))


class TestSwitchesToQuery:
    def test_inter_pod_groups(self, fattree4):
        """Paper §2.4.2: source ToR + its aggs + all cores + dest aggs."""
        switches = switches_to_query(fattree4, fattree4.equal_cost_paths("tor_0_0", "tor_1_0"))
        assert "tor_0_0" in switches
        assert {"agg_0_0", "agg_0_1"} <= switches
        assert set(fattree4.cores()) <= switches
        assert {"agg_1_0", "agg_1_1"} <= switches
        assert len(switches) == 1 + 2 + 4 + 2

    def test_intra_pod_smaller_set(self, fattree4):
        switches = switches_to_query(fattree4, fattree4.equal_cost_paths("tor_0_0", "tor_0_1"))
        assert switches == {"tor_0_0", "agg_0_0", "agg_0_1"}

    def test_covers_every_path(self, fattree4):
        paths = fattree4.equal_cost_paths("tor_0_0", "tor_2_1")
        switches = switches_to_query(fattree4, paths)
        for path in paths:
            # Every switch-switch link has its egress switch in the set.
            for u, _ in zip(path, path[1:]):
                assert u in switches


class TestPathMonitor:
    def test_query_assembles_path_states(self):
        ctx, scheduler = make_ctx()
        net = ctx.network
        paths = net.topology.equal_cost_paths("tor_0_0", "tor_1_0")
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 500 * MB,
            [net.component("h_0_0_0", "h_1_0_0", paths, 0)],
        )
        net.engine.run_until(10.5)  # promoted at 10 s
        monitor = PathMonitor("tor_0_0", "tor_1_0", MessageLedger(), scheduler.registry)
        monitor.refresh()
        states = monitor.path_states
        assert states[0].flow_numbers == 1
        # Path 1 shares the tor->agg_0_0 uplink with path 0, so its
        # bottleneck also sees the elephant; paths 2/3 (via agg_0_1) don't.
        assert states[1].flow_numbers == 1
        assert states[2].flow_numbers == 0
        assert states[3].flow_numbers == 0

    def test_query_message_accounting(self, fattree4):
        net = Network(fattree4)
        ledger = MessageLedger()
        monitor = PathMonitor("tor_0_0", "tor_1_0", ledger, MonitorRegistry(net))
        monitor.refresh()
        n = len(switches_to_query(fattree4, fattree4.equal_cost_paths("tor_0_0", "tor_1_0")))
        assert monitor.num_query_switches == n
        assert ledger.bytes_by_kind["dard_query"] == 48 * n
        assert ledger.bytes_by_kind["dard_reply"] == 32 * n
        assert ledger.count_by_kind["dard_query"] == n

    def test_path_index_lookup(self, fattree4):
        net = Network(fattree4)
        monitor = PathMonitor("tor_0_0", "tor_1_0", MessageLedger(), MonitorRegistry(net))
        for i, path in enumerate(monitor.paths):
            assert monitor.path_index(path) == i
        with pytest.raises(KeyError):
            monitor.path_index(("tor_0_0", "agg_0_0", "tor_0_1"))


class _RawContext:
    """Network + codec with no scheduler attached (daemon unit tests)."""

    def __init__(self, p=4):
        topo = FatTree(p=p, link_bandwidth_bps=100 * MBPS)
        self.network = Network(topo)
        self.codec = PathCodec(HierarchicalAddressing(topo))


class TestHostDaemonAlgorithm1:
    def _daemon_with_monitor(self):
        ctx = _RawContext()
        daemon = HostDaemon(
            host="h_0_0_0",
            network=ctx.network,
            codec=ctx.codec,
            ledger=MessageLedger(),
            delta_bps=10 * MBPS,
            registry=MonitorRegistry(ctx.network),
            shift_log=[],
        )
        return ctx, daemon

    def _start_elephant(self, ctx, src, dst, path_index):
        topo = ctx.network.topology
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        flow = ctx.network.start_flow(
            src, dst, 500 * MB,
            [ctx.network.component(src, dst, paths, path_index)],
        )
        ctx.network.engine.run_until(ctx.network.engine.now + 10.1)
        return flow

    def test_shift_off_congested_path(self):
        ctx, daemon = self._daemon_with_monitor()
        # Two of our elephants collide on path 0; paths 1-3 are empty.
        f1 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_0", 0)
        f2 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_1", 0)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        daemon.query_monitors()
        shifts = daemon.run_scheduling_round()
        assert shifts == 1
        paths = {f1.components[0].index, f2.components[0].index}
        assert len(paths) == 2  # now on different paths

    def test_no_shift_when_balanced(self):
        ctx, daemon = self._daemon_with_monitor()
        f1 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_0", 0)
        f2 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_1", 2)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        daemon.query_monitors()
        # One elephant per path: estimation (bw/2) - min (bw/1) < 0 -> stay.
        assert daemon.run_scheduling_round() == 0

    def test_inactive_path_rule(self):
        """A host cannot shift flows off a congested path it does not use
        (paper §2.5's E1 example)."""
        ctx, daemon = self._daemon_with_monitor()
        # Someone else's two elephants collide on path 0.
        self._start_elephant(ctx, "h_0_0_1", "h_1_0_0", 0)
        self._start_elephant(ctx, "h_0_0_1", "h_1_1_0", 0)
        # Our host has one elephant alone on path 2 — already optimal.
        ours = self._start_elephant(ctx, "h_0_0_0", "h_1_0_1", 2)
        daemon.on_elephant(ours)
        daemon.query_monitors()
        assert daemon.run_scheduling_round() == 0
        assert ours.path_switches == 0

    def test_delta_threshold_blocks_marginal_gains(self):
        ctx = _RawContext()
        daemon = HostDaemon(
            host="h_0_0_0",
            network=ctx.network,
            codec=ctx.codec,
            ledger=MessageLedger(),
            delta_bps=200 * MBPS,  # impossible to beat on 100 Mbps links
            registry=MonitorRegistry(ctx.network),
            shift_log=[],
        )
        f1 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_0", 0)
        f2 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_1", 0)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        daemon.query_monitors()
        assert daemon.run_scheduling_round() == 0

    def test_monitor_released_when_elephants_finish(self):
        ctx, daemon = self._daemon_with_monitor()
        flow = self._start_elephant(ctx, "h_0_0_0", "h_1_0_0", 0)
        daemon.on_elephant(flow)
        assert len(daemon.monitors) == 1
        # 500 MB at 100 Mbps finishes after 40 s; the attached scheduler's
        # periodic loops never drain, so advance a bounded clock instead of
        # run_until_idle.
        ctx.network.engine.run_until(60.0)
        assert not flow.active
        daemon.on_flow_completed(flow)
        assert len(daemon.monitors) == 0

    def test_same_tor_elephants_ignored(self):
        ctx, daemon = self._daemon_with_monitor()
        flow = self._start_elephant(ctx, "h_0_0_0", "h_0_0_1", 0)
        daemon.on_elephant(flow)
        assert len(daemon.monitors) == 0

    def test_flow_vector_counts_own_elephants_per_path(self):
        ctx, daemon = self._daemon_with_monitor()
        f1 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_0", 1)
        f2 = self._start_elephant(ctx, "h_0_0_0", "h_1_0_1", 1)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        monitor = next(iter(daemon.monitors.values()))
        assert flow_vector(daemon, monitor) == [0, 2, 0, 0]


class TestToyExample:
    """The paper's Figure 1 / Table 1 walk-through: three elephants squeezed
    through one core converge in a couple of rounds to disjoint paths and a
    global minimum BoNF equal to the full link bandwidth."""

    def test_three_flows_converge(self):
        ctx, scheduler = make_ctx(seed=1)
        net = ctx.network
        topo = net.topology

        def start_on_core0(src, dst):
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            via_core0 = next(i for i, p in enumerate(paths) if p[2] == "core_0_0")
            return net.start_flow(
                src, dst, 2000 * MB, [net.component(src, dst, paths, via_core0)]
            )

        # Mirror Figure 1: three inter-pod elephants, all through core 1
        # (our core_0_0), from distinct sources.
        flows = [
            start_on_core0("h_0_0_0", "h_1_0_0"),   # Flow0: E11 -> E21
            start_on_core0("h_0_1_0", "h_1_1_1"),   # Flow1: E13 -> E24
            start_on_core0("h_2_0_1", "h_1_1_0"),   # Flow2: E32 -> E23
        ]
        net.engine.run_until(60.0)
        # All three should now ride distinct cores at full bandwidth.
        cores = {flow_path(topo, f)[3] for f in flows}
        assert len(cores) == 3
        for flow in flows:
            assert flow.rate_bps == pytest.approx(100 * MBPS, rel=1e-6)
        # Convergence took at most a handful of shifts, then stopped.
        total = sum(f.path_switches for f in flows)
        assert 1 <= total <= 4
        shifts_at_60 = scheduler.total_shifts()
        net.engine.run_until(120.0)
        assert scheduler.total_shifts() == shifts_at_60  # Nash: no oscillation


class TestDardSchedulerIntegration:
    def test_daemons_created_per_source_host(self):
        ctx, scheduler = make_ctx()
        scheduler.place("h_0_0_0", "h_1_0_0", 300 * MB)
        scheduler.place("h_0_0_1", "h_2_0_0", 300 * MB)
        ctx.engine.run_until(11.0)
        assert set(scheduler.daemons) == {"h_0_0_0", "h_0_0_1"}

    def test_elephants_only(self):
        ctx, scheduler = make_ctx()
        scheduler.place("h_0_0_0", "h_1_0_0", 5 * MB)  # finishes quickly
        ctx.engine.run_until(20.0)
        assert scheduler.daemons == {}
        assert scheduler.ledger.total_bytes == 0.0

    def test_control_messages_flow_once_monitoring(self):
        ctx, scheduler = make_ctx()
        scheduler.place("h_0_0_0", "h_1_0_0", 300 * MB)
        ctx.engine.run_until(15.0)
        assert scheduler.ledger.total_bytes > 0
        assert set(scheduler.ledger.bytes_by_kind) == {"dard_query", "dard_reply"}

    def test_synchronized_mode_has_zero_jitter(self):
        ctx, scheduler = make_ctx(synchronized=True)
        assert scheduler._jitter() == 0.0

    def test_jitter_in_paper_range(self):
        ctx, scheduler = make_ctx()
        draws = [scheduler._jitter() for _ in range(200)]
        assert all(1.0 <= j <= 5.0 for j in draws)
        assert max(draws) > 4.0 and min(draws) < 2.0
