"""Tests for the batched DARD control plane.

Covers the :class:`MonitorRegistry` lifecycle (register / release /
revival / compaction epochs), dirty-tracked cache correctness against
direct network queries, Algorithm 1 tie-break edge cases in all three
execution paths (scalar reference, small-fleet floats, padded matrix),
the two-sided optimistic ``note_shift`` update, the ``cp_*`` telemetry
surface, and the scalar-vs-batched differential oracle (including its
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
from repro.core.monitor import index_pair_paths
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.scheduling import MessageLedger, SchedulerContext
from repro.simulator import FlowComponent, Network
from repro.topology import ClosNetwork, FatTree
from repro.validation.oracles import (
    check_controlplane_equivalence,
    compare_controlplane_results,
)


def make_network(p=4):
    return Network(FatTree(p=p, link_bandwidth_bps=100 * MBPS))


def start_flow_on(net, src, dst, path_index, size=500 * MB):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.start_flow(
        src, dst, size,
        [FlowComponent(topo.host_path(src, dst, paths[path_index]))],
    )


def make_daemon(net, vectorized=True, registry=None, delta_bps=10 * MBPS):
    codec = PathCodec(HierarchicalAddressing(net.topology))
    return HostDaemon(
        host="h_0_0_0",
        network=net,
        codec=codec,
        ledger=MessageLedger(),
        delta_bps=delta_bps,
        registry=registry,
        vectorized=vectorized,
    )


class TestMonitorRegistry:
    def test_register_interns_and_refcounts(self):
        net = make_network()
        registry = MonitorRegistry(net)
        pp1 = registry.register("tor_0_0", "tor_1_0")
        rows = registry.rows
        pp2 = registry.register("tor_0_0", "tor_1_0")
        assert pp1 is pp2  # interned, computed once
        assert registry.rows == rows  # second registration appends nothing
        assert registry.live_pairs == 1
        registry.release("tor_0_0", "tor_1_0")
        assert registry.live_pairs == 1  # one monitor still up
        registry.release("tor_0_0", "tor_1_0")
        assert registry.live_pairs == 0

    def test_released_pair_revives_for_free(self):
        net = make_network()
        registry = MonitorRegistry(net)
        registry.register("tor_0_0", "tor_1_0")
        span = registry._span[("tor_0_0", "tor_1_0")]
        registry.release("tor_0_0", "tor_1_0")
        assert registry._dead_rows == span[1]
        registry.register("tor_0_0", "tor_1_0")
        assert registry._dead_rows == 0
        assert registry._span[("tor_0_0", "tor_1_0")] == span  # same rows
        assert registry.live_pairs == 1

    def test_compaction_epoch_drops_dead_rows(self, monkeypatch):
        monkeypatch.setattr(MonitorRegistry, "_COMPACT_MIN_ROWS", 1)
        net = make_network()
        registry = MonitorRegistry(net)
        registry.register("tor_0_0", "tor_1_0")
        registry.register("tor_0_1", "tor_2_0")
        rows_before = registry.rows
        registry.release("tor_0_0", "tor_1_0")  # 50% dead -> epoch fires
        assert registry.stat_rebuilds == 1
        assert registry.rows < rows_before
        assert ("tor_0_0", "tor_1_0") not in registry._span
        # The surviving pair still answers queries correctly.
        band, eleph = registry.pair_rows("tor_0_1", "tor_2_0")
        pp = index_pair_paths(net, "tor_0_1", "tor_2_0")
        direct_band, direct_eleph = net.batch_path_state_arrays(
            pp.csr_indices, pp.csr_indptr
        )
        np.testing.assert_array_equal(band, direct_band)
        np.testing.assert_array_equal(eleph, direct_eleph)

    def test_cached_rows_track_network_state(self):
        net = make_network()
        registry = MonitorRegistry(net)
        pp = registry.register("tor_0_0", "tor_1_0")

        def assert_cache_fresh():
            band, eleph = registry.pair_rows("tor_0_0", "tor_1_0")
            direct_band, direct_eleph = net.batch_path_state_arrays(
                pp.csr_indices, pp.csr_indptr
            )
            np.testing.assert_array_equal(band, direct_band)
            np.testing.assert_array_equal(eleph, direct_eleph)

        assert_cache_fresh()
        start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        net.engine.run_until(10.5)  # promotion marks the path's links dirty
        assert_cache_fresh()
        net.fail_link("agg_0_0", "core_0_0")
        assert_cache_fresh()
        net.restore_link("agg_0_0", "core_0_0")
        assert_cache_fresh()

    def test_clean_queries_hit_the_cache(self):
        net = make_network()
        registry = MonitorRegistry(net)
        registry.register("tor_0_0", "tor_1_0")
        registry.pair_rows("tor_0_0", "tor_1_0")  # refreshes the append
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
    by_link = {}
    for local, ids in enumerate(monitored_ids):
        for link_id in ids.tolist():
            by_link.setdefault(link_id, []).append(local)
    return paths, monitored, indices, indptr, sorted(by_link.items())


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
        paths, monitored, indices, indptr, by_link = per_path_pair_paths(
            net, src_tor, dst_tor
        )
        assert pp.paths == paths
        assert pp.path_index_map == {path: i for i, path in enumerate(paths)}
        assert pp.monitored.tolist() == monitored
        np.testing.assert_array_equal(pp.csr_indices, indices)
        np.testing.assert_array_equal(pp.csr_indptr, indptr)
        bounds = pp.link_indptr.tolist()
        transposed = [
            (link_id, pp.link_rows[bounds[k] : bounds[k + 1]].tolist())
            for k, link_id in enumerate(pp.link_ids.tolist())
        ]
        assert transposed == by_link
        for array in (pp.monitored, pp.csr_indices, pp.csr_indptr,
                      pp.link_ids, pp.link_indptr, pp.link_rows):
            assert array.dtype == np.intp

    def test_registry_link_rows_cover_every_pair(self):
        net = make_network(p=8)
        registry = MonitorRegistry(net)
        pairs = [("tor_0_0", "tor_1_0"), ("tor_0_0", "tor_0_1"), ("tor_2_1", "tor_5_3")]
        expected = {}
        for src_tor, dst_tor in pairs:
            pp = registry.register(src_tor, dst_tor)
            start, _ = registry._span[(src_tor, dst_tor)]
            for local in range(pp.monitored.size):
                lo, hi = pp.csr_indptr[local], pp.csr_indptr[local + 1]
                for link_id in pp.csr_indices[lo:hi].tolist():
                    expected.setdefault(link_id, []).append(start + local)
        got = {
            link_id: np.concatenate(chunks).tolist()
            for link_id, chunks in registry._link_rows.items()
        }
        assert got == expected


class TestAlgorithm1TieBreaks:
    """Edge cases of ``_best_target`` / ``_worst_active``, checked on the
    scalar reference helpers and on the small-fleet float path."""

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
        assert HostDaemon._best_target(states) == 2

    def test_equal_bonf_equal_estimate_keeps_first(self):
        states = [PathState(100 * MBPS, 1), PathState(100 * MBPS, 1)]
        assert HostDaemon._best_target(states) == 0

    def test_worst_active_ignores_inactive_paths(self):
        states = [PathState(10 * MBPS, 5), PathState(100 * MBPS, 1)]
        # The congested path 0 is not ours -> only path 1 is eligible.
        assert HostDaemon._worst_active(states, [0, 1]) == 1

    def test_worst_active_all_inactive_is_none(self):
        states = [PathState(10 * MBPS, 5), PathState(100 * MBPS, 1)]
        assert HostDaemon._worst_active(states, [0, 0]) is None

    def test_single_path_monitor_never_shifts(self):
        states = [PathState(10 * MBPS, 5)]
        assert HostDaemon._best_target(states) == 0
        assert HostDaemon._worst_active(states, [1]) == 0
        # best == worst -> _schedule_one declines; mirror on the float path.
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

    def _congested_daemon(self, vectorized):
        net = make_network()
        registry = MonitorRegistry(net) if vectorized else None
        daemon = make_daemon(net, vectorized=vectorized, registry=registry)
        f1 = start_flow_on(net, "h_0_0_0", "h_1_0_0", 0)
        f2 = start_flow_on(net, "h_0_0_0", "h_1_0_1", 0)
        net.engine.run_until(10.5)
        daemon.on_elephant(f1)
        daemon.on_elephant(f2)
        daemon.query_monitors()
        return net, daemon, (f1, f2)

    def _decision(self, net, daemon, flows):
        shifts = daemon.run_scheduling_round()
        return (shifts, [tuple(f.switch_path()[1:-1]) for f in flows])

    def test_scalar_smallfleet_and_matrix_agree(self, monkeypatch):
        decisions = []
        for mode in ("scalar", "small", "matrix"):
            monkeypatch.setattr(
                daemon_module, "_SMALL_ROUND_CELLS", 0 if mode == "matrix" else 128
            )
            net, daemon, flows = self._congested_daemon(mode != "scalar")
            decisions.append(self._decision(net, daemon, flows))
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
            "cp_vectorized", "cp_daemons", "cp_monitors_live",
            "cp_query_rounds", "cp_query_time_s", "cp_round_time_s",
            "cp_vector_rounds", "cp_scalar_rounds", "cp_shift_tails",
            "cp_shifts", "cp_registry_pairs", "cp_registry_rows",
            "cp_registry_queries", "cp_registry_cache_hits",
            "cp_registry_refreshes", "cp_registry_rows_refreshed",
            "cp_registry_rebuilds", "cp_registry_registrations",
        ):
            assert key in stats, key
        assert stats["cp_vectorized"] == 1.0
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
        summary = check_controlplane_equivalence(SMALL_DARD)
        assert summary["flows"] > 0

    def test_perturbed_shift_log_is_caught(self):
        result = run_scenario(SMALL_DARD)
        reference = run_scenario(SMALL_DARD)
        tampered = dataclasses.replace(
            result,
            dard_shift_log=result.dard_shift_log
            + ((99.0, "h_0_0_0", 1, 0, 1),),
        )
        with pytest.raises(OracleViolation, match="controlplane-equivalence"):
            compare_controlplane_results(tampered, reference)

    def test_perturbed_record_is_caught(self):
        result = run_scenario(SMALL_DARD)
        reference = run_scenario(SMALL_DARD)
        result.records[0] = dataclasses.replace(
            result.records[0], end_time=result.records[0].end_time + 1e-9
        )
        with pytest.raises(OracleViolation, match="controlplane-equivalence"):
            compare_controlplane_results(result, reference)
