"""Tests for the DARD control plane.

Covers the :class:`MonitorRegistry` intern table, monitor rows against a
per-link ``link_state`` recount through promotion, failure and restore,
fresh arrays on every poll, Algorithm 1 tie-break edge cases (the scalar
reference twin and the production array round), the two-sided
optimistic ``note_shift`` update, the ``cp_*`` telemetry surface, and
the scalar control-plane twin run through the twin harness (including
its self-test: a perturbed result must be caught).
"""

import dataclasses

import numpy as np
import pytest

from repro.common.errors import OracleViolation
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import DardScheduler, MonitorRegistry, PathMonitor, PathState
from repro.core.daemon import HostDaemon
from repro.core.monitor import index_pair_paths, switches_to_query
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.scheduling import MessageLedger, SchedulerContext
from repro.simulator import Network
from repro.topology import ClosNetwork, FatTree
from repro.topology.custom import TopologySpec, build_custom
from repro.validation.twins import (
    SCALAR_CONTROL_PLANE,
    best_target,
    compare_runs,
    query_monitors_scalar,
    scheduling_round_scalar,
    twin_run,
    worst_active,
)
from tests.conftest import flow_path
from tests.test_addressing_arithmetic import TOPOLOGIES


def make_network(p=4):
    return Network(FatTree(p=p, link_bandwidth_bps=100 * MBPS))


def start_flow_on(net, src, dst, path_index, size=500 * MB):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.start_flow(
        src, dst, size,
        [net.component(src, dst, paths, path_index)],
    )


def make_daemon(net, delta_bps=10 * MBPS, host="h_0_0_0"):
    codec = PathCodec(HierarchicalAddressing(net.topology))
    return HostDaemon(
        host=host,
        network=net,
        codec=codec,
        ledger=MessageLedger(),
        delta_bps=delta_bps,
        registry=MonitorRegistry(net),
        shift_log=[],
    )


def hosted_pair_with_most_paths(topology):
    """The first (src ToR, dst ToR) pair of hosted ToRs with the most paths."""
    tors = [tor for tor in sorted(topology.tors()) if topology.hosts_of_tor(tor)]
    pairs = [(a, b) for a in tors for b in tors if a != b]
    return max(pairs, key=lambda pair: len(topology.equal_cost_paths(*pair)))


def assert_rows_match_link_states(net, monitor):
    """A monitor's rows equal a per-link recount of the network, bit for bit:
    each path's first minimum-BoNF ``link_state``."""
    recount = [
        min(
            (net.link_state(u, v) for u, v in zip(path, path[1:])),
            key=lambda state: state.bonf,
        )
        for path in monitor.paths
    ]
    assert monitor.state_band.tolist() == [s.bandwidth_bps for s in recount]
    assert monitor.state_eleph.tolist() == [s.elephant_flows for s in recount]


class TestMonitorRegistry:
    def test_register_interns_each_pair_once(self):
        net = make_network()
        registry = MonitorRegistry(net)
        pp1 = registry.register("tor_0_0", "tor_1_0")
        pp2 = registry.register("tor_0_0", "tor_1_0")
        registry.register("tor_0_0", "tor_0_1")
        assert pp1 is pp2  # interned, computed once
        assert registry.stats() == {
            "cp_registry_pairs": 2.0,
            "cp_registry_registrations": 3.0,
        }

    @pytest.mark.parametrize("name", ["clos", "custom", "fattree4", "threetier"])
    def test_cached_rows_track_network_state(self, name):
        """The rows a monitor holds between polls match a per-link recount
        after every poll: promotion, failure, restore, and a second
        monitor of the same pair coming up later."""
        topology = TOPOLOGIES[name]()
        net = Network(topology)
        registry = MonitorRegistry(net)
        pair = hosted_pair_with_most_paths(topology)
        monitor = PathMonitor(*pair, MessageLedger(), registry)
        paths = monitor.paths
        assert len(paths) > 1
        src, dst = (sorted(topology.hosts_of_tor(tor))[0] for tor in pair)

        def start_on(path_index):
            # Still live at 21 s on the default 1 Gbps links.
            return net.start_flow(
                src, dst, 10_000 * MB, [net.component(src, dst, paths, path_index)]
            )

        def poll_and_check(polled):
            polled.refresh()
            assert_rows_match_link_states(net, polled)

        poll_and_check(monitor)
        start_on(0)
        net.engine.run_until(10.5)  # the promotion raises the path's counts
        poll_and_check(monitor)
        assert monitor.state_eleph[0] == 1
        cable = paths[0][:2]
        net.fail_link(*cable)
        poll_and_check(monitor)
        assert monitor.state_band[0] == 0.0
        net.restore_link(*cable)
        poll_and_check(monitor)
        start_on(len(paths) - 1)
        net.engine.run_until(21.0)
        net.fail_link(*paths[-1][-2:])
        later = PathMonitor(*pair, MessageLedger(), registry)
        assert later.pair_paths is monitor.pair_paths
        poll_and_check(later)
        poll_and_check(monitor)

    def test_each_poll_returns_fresh_arrays(self):
        """Two hosts' monitors of one pair poll the same network state, but
        an optimistic ``note_shift`` edits only the monitor it is made on."""
        net = make_network()
        registry = MonitorRegistry(net)
        ledger = MessageLedger()
        first = PathMonitor("tor_0_0", "tor_1_0", ledger, registry)
        second = PathMonitor("tor_0_0", "tor_1_0", ledger, registry)
        start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)
        first.refresh()
        second.refresh()
        polled = first.state_eleph.tolist()
        assert polled == second.state_eleph.tolist()
        assert polled[0] == 1 and polled[2] == 0  # path 2 shares no hop
        first.note_shift(0, 2)
        assert first.state_eleph[[0, 2]].tolist() == [0, 1]
        assert second.state_eleph.tolist() == polled
        shifted = first.state_eleph
        first.refresh()
        assert first.state_eleph is not shifted
        assert first.state_eleph.tolist() == polled


def per_path_hops(net, src_tor, dst_tor):
    """The per-path, per-link build ``index_pair_paths`` replaced."""
    paths = net.topology.equal_cost_paths(src_tor, dst_tor)
    rows = [net.link_index.index_path(path) for path in paths if len(path) > 1]
    hops = np.array(rows, dtype=np.intp) if rows else np.empty((0, 0), dtype=np.intp)
    return paths, hops


class TestPairInterning:
    @pytest.mark.parametrize(
        "topology, src_tor, dst_tor",
        [
            (FatTree(p=4), "tor_0_0", "tor_0_0"),  # same ToR
            (FatTree(p=4), "tor_0_0", "tor_0_1"),  # intra-pod
            (FatTree(p=4), "tor_0_0", "tor_1_0"),  # inter-pod
            (FatTree(p=8), "tor_3_1", "tor_3_2"),
            (FatTree(p=8), "tor_2_3", "tor_5_0"),
            (ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2), "tor_0", "tor_1"),
            (ClosNetwork(d_i=4, d_a=4, hosts_per_tor=2), "tor_0", "tor_3"),
        ],
    )
    def test_matches_per_path_build(self, topology, src_tor, dst_tor):
        net = Network(topology)
        pp = index_pair_paths(net, src_tor, dst_tor)
        paths, hops = per_path_hops(net, src_tor, dst_tor)
        assert list(pp.paths) == list(paths)
        assert [pp.paths.index(path) for path in paths] == list(range(len(paths)))
        assert pp.num_query_switches == len(switches_to_query(topology, paths))
        assert pp.hops.shape == hops.shape
        np.testing.assert_array_equal(pp.hops, hops)
        assert pp.hops.dtype == np.intp


class TestAlgorithm1TieBreaks:
    """Edge cases of ``best_target`` / ``worst_active``, checked on the
    scalar reference twin and on the production array round."""

    def _monitor_stub(self, band, eleph):
        class Stub:
            src_tor = "tor_0_0"
            dst_tor = "tor_1_0"
            state_band = np.array(band, dtype=float)
            state_eleph = np.array(eleph, dtype=np.int64)

            def __init__(self):
                self.shifted = []

        return Stub()

    def test_equal_bonf_ties_break_to_higher_estimate(self):
        # Paths 1 and 2 tie on BoNF 100; path 2's post-shift estimate is
        # higher (200/2 > 100/2), so it must win despite the higher index.
        states = [
            PathState(100 * MBPS, 2),
            PathState(100 * MBPS, 1),
            PathState(200 * MBPS, 2),
        ]
        assert best_target(states) == 2

    def test_equal_bonf_equal_estimate_keeps_first(self):
        states = [PathState(100 * MBPS, 1), PathState(100 * MBPS, 1)]
        assert best_target(states) == 0

    def test_worst_active_ignores_inactive_paths(self):
        states = [PathState(10 * MBPS, 5), PathState(100 * MBPS, 1)]
        # The congested path 0 is not ours -> only path 1 is eligible.
        assert worst_active(states, [0, 1]) == 1

    def test_worst_active_all_inactive_is_none(self):
        states = [PathState(10 * MBPS, 5), PathState(100 * MBPS, 1)]
        assert worst_active(states, [0, 0]) is None

    def test_single_path_monitor_never_shifts(self):
        states = [PathState(10 * MBPS, 5)]
        assert best_target(states) == 0
        assert worst_active(states, [1]) == 0
        # best == worst -> schedule_one declines; mirror on the array round.
        net = make_network()
        daemon = make_daemon(net)
        stub = self._monitor_stub([10 * MBPS], [5])
        daemon.elephants = {("tor_0_0", "tor_1_0"): []}
        assert daemon._schedule_one_arrays(stub) is False

    def test_all_inactive_paths_no_shift_on_float_path(self):
        net = make_network()
        daemon = make_daemon(net)
        stub = self._monitor_stub([10 * MBPS, 100 * MBPS], [5, 1])
        daemon.elephants = {("tor_0_0", "tor_1_0"): []}  # FV all zero
        assert daemon._schedule_one_arrays(stub) is False


#: Two t0 -> t1 paths whose hops tie on BoNF but not on capacity. Path 0
#: runs over 100 Mbps hops and carries h0's one elephant (BoNF 100 Mbps).
#: Path 1 is idle, so every hop's BoNF is infinite: its first hop has
#: 100 Mbps, its later hops 200 Mbps. The first minimum reports 100 Mbps,
#: a post-shift estimate no better than path 0, so the flow stays; a kernel
#: reporting the last minimum would see 200 Mbps and shift it.
UNEQUAL_TIE = TopologySpec(
    cores=["c0", "c1"],
    aggs={"a0": 0, "b0": 0, "a1": 1, "b1": 1},
    tors={"t0": 0, "t1": 1},
    hosts={"h0": "t0", "h1": "t1"},
    core_agg_links=[("c0", "a0"), ("c0", "a1"), ("c1", "b0"), ("c1", "b1")],
    agg_tor_links=[("a0", "t0"), ("b0", "t0"), ("a1", "t1"), ("b1", "t1")],
    link_bandwidth_bps=100 * MBPS,
    link_overrides={
        ("b0", "c1"): 200 * MBPS, ("c1", "b1"): 200 * MBPS, ("b1", "t1"): 200 * MBPS,
    },
)


class TestExecutionPathEquivalence:
    """The scalar twin's round and the production round decide identically
    on real state."""

    def _decision(self, net, host, dsts, scalar):
        daemon = make_daemon(net, host=host)
        flows = [start_flow_on(net, host, dst, 0) for dst in dsts]
        net.engine.run_until(10.5)
        for flow in flows:
            daemon.on_elephant(flow)
        if scalar:
            query_monitors_scalar(daemon)
            shifts = scheduling_round_scalar(daemon)
        else:
            daemon.query_monitors()
            shifts = daemon.run_scheduling_round()
        return (shifts, [flow_path(net.topology, f)[1:-1] for f in flows])

    def test_scalar_and_array_rounds_agree(self):
        decisions = [
            self._decision(make_network(), "h_0_0_0", ["h_1_0_0", "h_1_0_1"], scalar)
            for scalar in (True, False)
        ]
        assert decisions[0] == decisions[1]
        assert decisions[0][0] == 1  # exactly one congestion-relieving shift

    def test_unequal_capacity_tie_keeps_the_flow(self):
        decisions = [
            self._decision(Network(build_custom(UNEQUAL_TIE)), "h0", ["h1"], scalar)
            for scalar in (True, False)
        ]
        assert decisions[0] == decisions[1]
        assert decisions[0] == (0, [("t0", "a0", "c0", "a1", "t1")])


class TestTwoSidedOptimisticUpdate:
    def test_note_shift_updates_both_paths(self):
        net = make_network()
        monitor = PathMonitor("tor_0_0", "tor_1_0", MessageLedger(), MonitorRegistry(net))
        monitor.path_states = [PathState(100 * MBPS, 2), PathState(100 * MBPS, 0),
                               PathState(100 * MBPS, 0), PathState(100 * MBPS, 0)]
        monitor.note_shift(0, 2)
        assert monitor.state_eleph.tolist() == [1, 0, 1, 0]

    def test_note_shift_never_goes_negative(self):
        net = make_network()
        monitor = PathMonitor("tor_0_0", "tor_1_0", MessageLedger(), MonitorRegistry(net))
        monitor.note_shift(0, 1)  # vacated path already at 0
        assert monitor.state_eleph.tolist() == [0, 1, 0, 0]

    def test_shift_applies_two_sided_update_and_journals(self):
        net = make_network()
        daemon = make_daemon(net)
        flow = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)
        daemon.on_elephant(flow)
        daemon.query_monitors()
        monitor = next(iter(daemon.monitors.values()))
        before = monitor.state_eleph.copy()
        daemon._shift(flow, monitor, to_index=2, from_index=0)
        assert monitor.state_eleph[0] == before[0] - 1  # vacated side
        assert monitor.state_eleph[2] == before[2] + 1  # landing side
        assert flow.components[0].index == 2
        assert daemon.shift_log == [(net.now, "h_0_0_0", flow.flow_id, 0, 2)]

    def test_within_round_ordering_sees_prior_shift(self):
        """Back-to-back rounds *without* a refresh in between must build on
        the optimistic state — the landing path heavier, the vacated path
        lighter — so the second round does not re-shift the same flow."""
        net = make_network()
        daemon = make_daemon(net)
        f1 = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        f2 = start_flow_on(net, "h_0_0_0", "h_1_0_1", 0)
        net.engine.run_until(10.5)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        daemon.query_monitors()
        assert daemon.run_scheduling_round() == 1
        # Stale-free: immediately re-running the round finds the balanced
        # post-shift state (one elephant per path side) and stays put.
        assert daemon.run_scheduling_round() == 0


class TestPerfStatsSurface:
    def test_controlplane_keys_merged_into_perf_stats(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        ctx = SchedulerContext(
            network=net,
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )
        scheduler = DardScheduler()
        scheduler.attach(ctx)
        scheduler.place("h_0_0_0", "h_1_0_0", 500 * MB)
        net.engine.run_until(12.0)
        stats = net.perf_stats()
        assert {key for key in stats if key.startswith("cp_")} == {
            "cp_daemons", "cp_monitors_live", "cp_query_rounds", "cp_shifts",
            "cp_registry_pairs", "cp_registry_registrations",
        }
        assert stats["cp_daemons"] >= 1.0
        assert stats["cp_registry_registrations"] >= stats["cp_registry_pairs"] >= 1.0


SMALL_DARD = ScenarioConfig(
    topology="fattree",
    topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
    pattern="stride",
    scheduler="dard",
    arrival_rate_per_host=0.08,
    duration_s=18.0,
    flow_size_bytes=64 * MB,
    seed=3,
)


class TestControlplaneOracle:
    def test_small_scenario_equivalent(self):
        result = twin_run(SMALL_DARD, SCALAR_CONTROL_PLANE)
        assert result.records

    def test_perturbed_shift_log_is_caught(self):
        result = run_scenario(SMALL_DARD)
        reference = run_scenario(SMALL_DARD)
        tampered = dataclasses.replace(
            result,
            dard_shift_log=result.dard_shift_log
            + ((99.0, "h_0_0_0", 1, 0, 1),),
        )
        with pytest.raises(OracleViolation, match="controlplane-equivalence"):
            compare_runs(tampered, reference, SCALAR_CONTROL_PLANE.oracle)

    def test_perturbed_record_is_caught(self):
        result = run_scenario(SMALL_DARD)
        reference = run_scenario(SMALL_DARD)
        result.records[0] = dataclasses.replace(
            result.records[0], end_time=result.records[0].end_time + 1e-9
        )
        with pytest.raises(OracleViolation, match="controlplane-equivalence"):
            compare_runs(result, reference, SCALAR_CONTROL_PLANE.oracle)
