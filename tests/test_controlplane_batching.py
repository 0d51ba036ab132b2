"""Tests for the batched DARD control plane.

Covers the :class:`MonitorRegistry` lifecycle (register / release /
re-register), the per-link change-stamp contract (cached rows against
direct network queries, and which polls refresh), Algorithm 1 tie-break
edge cases in all three execution paths (the scalar reference twin,
small-fleet floats, padded matrix), the two-sided optimistic
``note_shift`` update, the ``cp_*`` telemetry surface, and the scalar
control-plane twin run through the twin harness (including its
self-test: a perturbed result must be caught).
"""

import dataclasses

import numpy as np
import pytest

import repro.core.daemon as daemon_module
from repro.common.errors import OracleViolation
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.core import DardScheduler, MonitorRegistry, PathMonitor, PathState
from repro.core.daemon import HostDaemon
from repro.core.monitor import index_pair_paths, switches_to_query
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.scheduling import MessageLedger, SchedulerContext
from repro.simulator import FlowComponent, Network
from repro.topology import ClosNetwork, FatTree
from repro.validation.twins import (
    SCALAR_CONTROL_PLANE,
    best_target,
    compare_runs,
    query_monitors_scalar,
    scheduling_round_scalar,
    twin_run,
    worst_active,
)
from tests.test_addressing_arithmetic import TOPOLOGIES


def make_network(p=4):
    return Network(FatTree(p=p, link_bandwidth_bps=100 * MBPS))


def start_flow_on(net, src, dst, path_index, size=500 * MB):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.start_flow(
        src, dst, size,
        [FlowComponent(topo.host_path(src, dst, paths[path_index]))],
    )


def make_daemon(net, registry=None, delta_bps=10 * MBPS):
    codec = PathCodec(HierarchicalAddressing(net.topology))
    return HostDaemon(
        host="h_0_0_0",
        network=net,
        codec=codec,
        ledger=MessageLedger(),
        delta_bps=delta_bps,
        registry=registry,
    )


def hosted_pair_with_most_paths(topology):
    """The first (src ToR, dst ToR) pair of hosted ToRs with the most paths."""
    tors = [tor for tor in sorted(topology.tors()) if topology.hosts_of_tor(tor)]
    pairs = [(a, b) for a in tors for b in tors if a != b]
    return max(pairs, key=lambda pair: len(topology.equal_cost_paths(*pair)))


def assert_rows_fresh(net, registry, pair):
    """The registry's rows equal a fresh query of the network, bit for bit."""
    pp = registry.intern_pair(*pair)
    band, eleph = registry.pair_rows(*pair)
    direct_band, direct_eleph = net.batch_path_state_arrays(
        pp.csr_indices, pp.csr_indptr
    )
    np.testing.assert_array_equal(band, direct_band)
    np.testing.assert_array_equal(eleph, direct_eleph)


class TestMonitorRegistry:
    def test_register_interns_and_refcounts(self):
        net = make_network()
        registry = MonitorRegistry(net)
        pp1 = registry.register("tor_0_0", "tor_1_0")
        registry.pair_rows("tor_0_0", "tor_1_0")
        rows = registry.rows
        assert rows == pp1.monitored.size
        pp2 = registry.register("tor_0_0", "tor_1_0")
        assert pp1 is pp2  # interned, computed once
        assert registry.rows == rows  # second registration caches nothing new
        assert registry.live_pairs == 1
        registry.release("tor_0_0", "tor_1_0")
        assert registry.live_pairs == 1  # one monitor still up
        assert registry.rows == rows
        registry.release("tor_0_0", "tor_1_0")
        assert registry.live_pairs == 0
        assert registry.rows == 0  # the last release drops the pair's entry

    @pytest.mark.parametrize("name", ["clos", "custom", "fattree4", "threetier"])
    def test_cached_rows_track_network_state(self, name):
        topology = TOPOLOGIES[name]()
        net = Network(topology)
        registry = MonitorRegistry(net)
        pair = hosted_pair_with_most_paths(topology)
        pp = registry.register(*pair)
        assert len(pp.paths) > 1
        src, dst = (sorted(topology.hosts_of_tor(tor))[0] for tor in pair)

        def start_on(path_index):
            path = topology.host_path(src, dst, pp.paths[path_index])
            # Still live at 21 s on the default 1 Gbps links.
            return net.start_flow(src, dst, 10_000 * MB, [FlowComponent(path)])

        assert_rows_fresh(net, registry, pair)
        start_on(0)
        net.engine.run_until(10.5)  # the promotion stamps the path's links
        assert_rows_fresh(net, registry, pair)
        cable = pp.paths[0][:2]
        net.fail_link(*cable)
        assert_rows_fresh(net, registry, pair)
        net.restore_link(*cable)
        assert_rows_fresh(net, registry, pair)
        # Release, change state while no monitor is up, then come back.
        registry.release(*pair)
        start_on(len(pp.paths) - 1)
        net.engine.run_until(21.0)
        net.fail_link(*pp.paths[-1][-2:])
        assert registry.register(*pair) is pp
        assert_rows_fresh(net, registry, pair)

    def test_polls_refresh_only_pairs_with_stamped_links(self):
        net = make_network()
        registry = MonitorRegistry(net)
        pair_a, pair_b = ("tor_0_0", "tor_1_0"), ("tor_2_0", "tor_3_0")
        pp_a = registry.register(*pair_a)
        pp_b = registry.register(*pair_b)
        assert np.intersect1d(pp_a.link_ids, pp_b.link_ids).size == 0

        def poll(pair):
            """``(refreshes, cache hits)`` added by one poll of ``pair``."""
            refreshes, hits = registry.stat_refreshes, registry.stat_cache_hits
            registry.pair_rows(*pair)
            return (registry.stat_refreshes - refreshes, registry.stat_cache_hits - hits)

        assert poll(pair_a) == (1, 0)  # the first poll computes
        assert poll(pair_b) == (1, 0)
        assert poll(pair_a) == (0, 1)
        assert poll(pair_b) == (0, 1)
        start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)  # promotion on A's path
        assert poll(pair_a) == (1, 0)
        assert poll(pair_b) == (0, 1)
        net.fail_link(*pp_b.paths[0][1:3])  # cable failure on B's path
        assert poll(pair_a) == (0, 1)
        assert poll(pair_b) == (1, 0)
        assert poll(pair_b) == (0, 1)

    def test_clean_queries_hit_the_cache(self):
        net = make_network()
        registry = MonitorRegistry(net)
        registry.register("tor_0_0", "tor_1_0")
        registry.pair_rows("tor_0_0", "tor_1_0")  # the first poll computes
        hits = registry.stat_cache_hits
        registry.pair_rows("tor_0_0", "tor_1_0")
        registry.pair_rows("tor_0_0", "tor_1_0")
        assert registry.stat_cache_hits == hits + 2
        assert registry.stat_refreshes == 1

    def test_monitor_release_reregisters_cleanly(self):
        """The monitor-churn cycle: last elephant completes, pair comes
        back later — the registry must serve the revived pair correctly."""
        net = make_network()
        registry = MonitorRegistry(net)
        ledger = MessageLedger()
        monitor = PathMonitor(net, "tor_0_0", "tor_1_0", ledger, registry=registry)
        monitor.refresh()
        monitor.release()
        monitor.release()  # idempotent
        assert registry.live_pairs == 0
        flow = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)
        revived = PathMonitor(net, "tor_0_0", "tor_1_0", ledger, registry=registry)
        revived.refresh()
        assert revived.state_eleph[0] == 1
        assert flow.active


def per_path_pair_paths(net, src_tor, dst_tor):
    """The per-path, per-link build ``index_pair_paths`` replaced."""
    paths = net.topology.equal_cost_paths(src_tor, dst_tor)
    path_link_ids = [
        net.index_switch_path(path) if len(path) > 1 else None for path in paths
    ]
    monitored = [i for i, ids in enumerate(path_link_ids) if ids is not None]
    monitored_ids = [path_link_ids[i] for i in monitored]
    indptr = np.zeros(len(monitored_ids) + 1, dtype=np.intp)
    np.cumsum([ids.size for ids in monitored_ids], out=indptr[1:])
    indices = (
        np.concatenate(monitored_ids) if monitored_ids else np.empty(0, dtype=np.intp)
    )
    return paths, monitored, indices, indptr, sorted(set(indices.tolist()))


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
        paths, monitored, indices, indptr, link_ids = per_path_pair_paths(
            net, src_tor, dst_tor
        )
        assert list(pp.paths) == list(paths)
        assert [pp.paths.index(path) for path in paths] == list(range(len(paths)))
        assert pp.num_query_switches == len(
            switches_to_query(topology, src_tor, dst_tor)
        )
        assert pp.monitored.tolist() == monitored
        np.testing.assert_array_equal(pp.csr_indices, indices)
        np.testing.assert_array_equal(pp.csr_indptr, indptr)
        assert pp.link_ids.tolist() == link_ids
        for array in (pp.monitored, pp.csr_indices, pp.csr_indptr, pp.link_ids):
            assert array.dtype == np.intp


class TestAlgorithm1TieBreaks:
    """Edge cases of ``best_target`` / ``worst_active``, checked on the
    scalar reference twin and on the small-fleet float path."""

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
        # best == worst -> schedule_one declines; mirror on the float path.
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


class TestExecutionPathEquivalence:
    """The three round implementations decide identically on real state."""

    def _decision(self, scalar):
        net = make_network()
        # The scalar twin polls without a registry, as it runs in the harness.
        daemon = make_daemon(net, registry=None if scalar else MonitorRegistry(net))
        f1 = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        f2 = start_flow_on(net, "h_0_0_0", "h_1_0_1", 0)
        net.engine.run_until(10.5)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        if scalar:
            query_monitors_scalar(daemon)
            shifts = scheduling_round_scalar(daemon)
        else:
            daemon.query_monitors()
            shifts = daemon.run_scheduling_round()
        return (shifts, [tuple(f.switch_path()[1:-1]) for f in (f1, f2)])

    def test_scalar_smallfleet_and_matrix_agree(self, monkeypatch):
        decisions = []
        for mode in ("scalar", "small", "matrix"):
            monkeypatch.setattr(
                daemon_module, "_SMALL_ROUND_CELLS", 0 if mode == "matrix" else 128
            )
            decisions.append(self._decision(scalar=mode == "scalar"))
        assert decisions[0] == decisions[1] == decisions[2]
        assert decisions[0][0] == 1  # exactly one congestion-relieving shift


class TestTwoSidedOptimisticUpdate:
    def test_note_shift_updates_both_paths(self):
        net = make_network()
        monitor = PathMonitor(net, "tor_0_0", "tor_1_0", MessageLedger())
        monitor.path_states = [PathState(100 * MBPS, 2), PathState(100 * MBPS, 0),
                               PathState(100 * MBPS, 0), PathState(100 * MBPS, 0)]
        monitor.note_shift(0, 2)
        assert monitor.state_eleph.tolist() == [1, 0, 1, 0]

    def test_note_shift_never_goes_negative(self):
        net = make_network()
        monitor = PathMonitor(net, "tor_0_0", "tor_1_0", MessageLedger())
        monitor.note_shift(0, 1)  # vacated path already at 0
        assert monitor.state_eleph.tolist() == [0, 1, 0, 0]

    def test_shift_applies_two_sided_update_and_journals(self):
        net = make_network()
        daemon = make_daemon(net)
        daemon.shift_log = []
        flow = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)
        daemon.on_elephant(flow)
        daemon.query_monitors()
        monitor = next(iter(daemon.monitors.values()))
        before = monitor.state_eleph.copy()
        daemon._shift(flow, monitor, to_index=2, from_index=0)
        assert monitor.state_eleph[0] == before[0] - 1  # vacated side
        assert monitor.state_eleph[2] == before[2] + 1  # landing side
        assert flow.monitored_path_index == 2
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
        for key in (
            "cp_daemons", "cp_monitors_live",
            "cp_query_rounds", "cp_query_time_s", "cp_round_time_s",
            "cp_vector_rounds", "cp_shift_tails",
            "cp_shifts", "cp_registry_pairs", "cp_registry_rows",
            "cp_registry_queries", "cp_registry_cache_hits",
            "cp_registry_refreshes", "cp_registry_rows_refreshed",
            "cp_registry_registrations",
        ):
            assert key in stats, key
        assert stats["cp_daemons"] >= 1.0


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
