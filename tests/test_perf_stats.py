"""Regression tests for the network's reallocation telemetry surface."""

import pytest

from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.topology import FatTree

#: The complete ``perf_stats()`` surface, asserted in one place so the
#: docstring, the stats dict, and every ``stats.update(...)`` source
#: (flow store, detector, control-plane providers) cannot drift apart
#: silently again.
NETWORK_KEYS = {
    "realloc_calls", "realloc_requests", "realloc_coalesced", "realloc_sync",
    "realloc_demands", "filling_iterations", "realloc_time_s",
    "flows_started", "flows_completed", "reroutes", "num_links",
    "realloc_full", "realloc_incremental", "realloc_subset",
    "components_touched", "flows_rerated", "flows_preserved",
    "events_rescheduled", "events_preserved", "settle_batches",
}
STORE_KEYS = {"store_acquires", "store_capacity", "store_grows", "store_rows"}
DET_KEYS = {
    "det_predictive", "det_flows_seen", "det_samples",
    "det_early_promotions", "det_fallback_promotions",
    "det_mean_detection_age_s",
}
CP_KEYS = {
    "cp_daemons", "cp_monitors_live", "cp_query_rounds", "cp_shifts",
    "cp_registry_pairs", "cp_registry_registrations",
}


@pytest.fixture
def topo():
    return FatTree(p=4, link_bandwidth_bps=100 * MBPS)


def _component(net, src, dst, path_i=0):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.component(src, dst, paths, path_i % len(paths))


class TestPerfStats:
    def test_counters_match_event_counts(self, topo):
        net = Network(topo)
        pairs = [
            ("h_0_0_0", "h_1_0_0"),
            ("h_0_0_1", "h_2_0_0"),
            ("h_0_1_0", "h_3_0_0"),
            ("h_1_0_1", "h_2_1_0"),
        ]
        flows = [
            net.start_flow(src, dst, 10 * MB, [_component(net, src, dst)])
            for src, dst in pairs
        ]
        net.engine.run_until(1.0)
        net.reroute_flow(flows[0], [_component(net, *pairs[0], path_i=1)])
        cable = next(
            (link.u, link.v)
            for link in topo.links()
            if topo.node(link.u).kind.is_switch and topo.node(link.v).kind.is_switch
        )
        net.fail_link(*cable)
        net.restore_link(*cable)
        net.engine.run_until(500.0)  # long enough for everything to finish

        stats = net.perf_stats()
        assert stats["flows_started"] == len(pairs)
        assert stats["flows_completed"] == len(pairs)
        assert stats["reroutes"] == 1
        assert stats["realloc_sync"] == 2  # one fail + one restore
        # Every executed reallocation is either a drained scheduled request
        # or a synchronous fail/restore call; coalesced requests never run.
        assert (
            stats["realloc_calls"]
            == stats["realloc_requests"] - stats["realloc_coalesced"] + stats["realloc_sync"]
        )
        # Starts, the reroute, and per-flow completions each filed a request.
        assert stats["realloc_requests"] >= len(pairs) + 1
        assert stats["realloc_calls"] >= 1
        assert stats["realloc_demands"] >= len(pairs)
        assert stats["filling_iterations"] >= 1
        assert stats["realloc_time_s"] > 0.0
        assert stats["num_links"] == len(net.link_index)

    def test_coalescing_counts_same_instant_requests(self, topo):
        """Several starts at the same instant fold into one reallocation."""
        net = Network(topo)
        for i in range(5):
            src, dst = f"h_0_0_{i % 2}", f"h_1_0_{i % 2}"
            net.start_flow(src, dst, 10 * MB, [_component(net, src, dst, i)])
        net.engine.run_until(0.0)
        stats = net.perf_stats()
        assert stats["realloc_requests"] == 5
        assert stats["realloc_coalesced"] == 4
        assert stats["realloc_calls"] == 1

    def test_stats_start_at_zero(self, topo):
        net = Network(topo)
        stats = net.perf_stats()
        assert stats["realloc_calls"] == 0
        assert stats["realloc_time_s"] == 0.0
        assert stats["flows_started"] == 0


class TestKeyInventory:
    """The exact ``perf_stats()`` key surface, per configuration."""

    def test_base_network(self, topo):
        keys = set(Network(topo).perf_stats())
        assert keys == NETWORK_KEYS | STORE_KEYS

    def test_predictive_detector_adds_det_keys(self, topo):
        net = Network(topo, elephant_detector="predictive")
        assert set(net.perf_stats()) == NETWORK_KEYS | STORE_KEYS | DET_KEYS

    def test_dard_scenario_adds_cp_keys(self):
        from repro.experiments.runner import ScenarioConfig, run_scenario

        captured = []
        run_scenario(
            ScenarioConfig(
                topology="fattree",
                topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
                pattern="stride",
                scheduler="dard",
                arrival_rate_per_host=0.1,
                duration_s=4.0,
                flow_size_bytes=8 * MB,
                seed=11,
            ),
            instrument=captured.append,
        )
        assert set(captured[0].perf_stats()) == NETWORK_KEYS | STORE_KEYS | CP_KEYS
