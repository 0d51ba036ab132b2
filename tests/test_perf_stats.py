"""Regression tests for the network's reallocation telemetry surface."""

import pytest

from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.topology import FatTree

#: The complete ``perf_stats()`` surface, each key beside the reader
#: outside ``tests/`` that it exists for. A key nothing reads does not
#: belong here, nor in ``perf_stats()``.
NETWORK_KEYS = {
    "realloc_calls": "perfbench simulator.realloc_calls, golden digest",
    "filling_iterations": "golden digest",
    "realloc_time_s": "perfbench simulator.realloc_s, bench_perf_realloc",
    "flows_started": "perfbench start_flow seam check",
    "reroutes": "perfbench reroute seam check",
    "realloc_full": "perfbench simulator.realloc_full, bench_perf_realloc",
    "realloc_incremental": "perfbench simulator.realloc_incremental, bench_perf_realloc",
    "realloc_subset": "bench_perf_realloc",
    "realloc_reruns": "bench_perf_realloc",
    "flows_rerated": "perfbench simulator.rerated_share, bench_perf_realloc",
    "flows_boundary": "bench_perf_realloc",
    "flows_preserved": "perfbench simulator.rerated_share, bench_perf_realloc",
}
CP_KEYS = {
    "cp_query_rounds": "perfbench core.query seam check",
}
DET_KEYS = {
    "det_early_promotions": "bench_ext_scenarios",
    "det_fallback_promotions": "bench_ext_scenarios",
    "det_mean_detection_age_s": "bench_ext_scenarios",
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
        # A cable failure or restore refills before it returns.
        for transition in (net.fail_link, net.restore_link):
            calls = net.perf_stats()["realloc_calls"]
            transition(*cable)
            assert net.perf_stats()["realloc_calls"] == calls + 1
        net.engine.run_until(500.0)  # long enough for everything to finish

        stats = net.perf_stats()
        assert stats["flows_started"] == len(pairs)
        assert len(net.records) == len(pairs)
        assert stats["reroutes"] == 1
        assert stats["realloc_calls"] >= 1
        assert stats["filling_iterations"] >= 1
        assert stats["realloc_time_s"] > 0.0

    def test_coalescing_counts_same_instant_requests(self, topo):
        """Several starts at the same instant fold into one reallocation."""
        net = Network(topo)
        for i in range(5):
            src, dst = f"h_0_0_{i % 2}", f"h_1_0_{i % 2}"
            net.start_flow(src, dst, 10 * MB, [_component(net, src, dst, i)])
        net.engine.run_until(0.0)
        stats = net.perf_stats()
        assert stats["flows_started"] == 5
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
        assert set(Network(topo).perf_stats()) == set(NETWORK_KEYS)

    def test_predictive_detector_adds_det_keys(self, topo):
        net = Network(topo, elephant_detector="predictive")
        assert set(net.perf_stats()) == set(NETWORK_KEYS) | set(DET_KEYS)

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
        assert set(captured[0].perf_stats()) == set(NETWORK_KEYS) | set(CP_KEYS)
