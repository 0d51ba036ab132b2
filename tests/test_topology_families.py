"""Tests for the three topology families and the multi-rooted helpers."""

import random
import tracemalloc

import pytest

from repro.common.errors import TopologyError
from repro.common.units import GBPS, MBPS
from repro.topology import ClosNetwork, FatTree, ThreeTier, build_topology


class TestFatTreeStructure:
    def test_component_counts_p4(self, fattree4):
        # p=4: 4 cores, 8 aggs, 8 tors, 16 hosts (p^3/4).
        assert len(fattree4.cores()) == 4
        assert len(fattree4.aggs()) == 8
        assert len(fattree4.tors()) == 8
        assert len(fattree4.hosts()) == 16

    def test_component_counts_general(self):
        p = 8
        topo = FatTree(p=p)
        assert len(topo.cores()) == (p // 2) ** 2
        assert len(topo.hosts()) == p**3 // 4
        assert len(topo.aggs()) == p * p // 2

    def test_every_switch_has_p_ports(self):
        p = 4
        topo = FatTree(p=p)
        for switch in topo.switches():
            assert len(topo.neighbors(switch)) == p, switch

    def test_odd_p_rejected(self):
        with pytest.raises(TopologyError):
            FatTree(p=5)

    def test_zero_p_rejected(self):
        with pytest.raises(TopologyError):
            FatTree(p=0)

    def test_core_reaches_every_pod_exactly_once(self, fattree4):
        for core in fattree4.cores():
            pods = [fattree4.pod_of(a) for a in fattree4.down_neighbors(core)]
            assert sorted(pods) == list(range(fattree4.p))

    def test_host_bandwidth_override(self):
        topo = FatTree(p=4, link_bandwidth_bps=GBPS, host_bandwidth_bps=100 * MBPS)
        host = topo.hosts()[0]
        assert topo.link(host, topo.tor_of(host)).bandwidth_bps == 100 * MBPS
        agg = topo.up_neighbors(topo.tor_of(host))[0]
        assert topo.link(topo.tor_of(host), agg).bandwidth_bps == GBPS


class TestFatTreePaths:
    def test_inter_pod_path_count_is_p2_over_4(self, fattree4):
        paths = fattree4.equal_cost_paths("tor_0_0", "tor_1_0")
        assert len(paths) == fattree4.paths_per_inter_pod_pair == 4

    def test_each_inter_pod_path_has_unique_core(self, fattree4):
        paths = fattree4.equal_cost_paths("tor_0_0", "tor_2_1")
        cores = [p[2] for p in paths]
        assert len(set(cores)) == len(paths)

    def test_intra_pod_paths_via_each_agg(self, fattree4):
        paths = fattree4.equal_cost_paths("tor_0_0", "tor_0_1")
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_same_tor_trivial_path(self, fattree4):
        assert list(fattree4.equal_cost_paths("tor_0_0", "tor_0_0")) == [("tor_0_0",)]

    def test_paths_are_wired(self, fattree4):
        for path in fattree4.equal_cost_paths("tor_0_0", "tor_3_1"):
            fattree4.path_links(path)  # raises if any hop is missing

    def test_non_tor_argument_rejected(self, fattree4):
        with pytest.raises(TopologyError):
            fattree4.equal_cost_paths("agg_0_0", "tor_1_0")

    def test_path_sets_store_nothing_per_pair(self):
        """Paths are computed from O(switch links) tables, built once per
        pod: building all of them stays under 2 MB, and afterwards 2,000
        random p=32 ToR pairs (256 paths each between pods) leave under
        64 KB traced, about 32 bytes a pair. Caching every pair's tuple
        list costs ~42 MB, and even a memo of the path set objects alone
        several hundred KB."""
        topology = FatTree(p=32)
        tors = sorted(topology.tors())
        one_per_pod = sorted({topology.pod_of(tor): tor for tor in tors}.values())
        rng = random.Random(0)
        pairs = [rng.sample(tors, 2) for _ in range(2000)]
        tracemalloc.start()
        try:
            # Each pod once as the source and once as the destination.
            for src, dst in zip(one_per_pod, one_per_pod[1:] + one_per_pod[:1]):
                assert topology.equal_cost_paths(src, dst)[0][0] == src
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            for i, (src, dst) in enumerate(pairs):
                paths = topology.equal_cost_paths(src, dst)
                assert paths[i % len(paths)][0] == src
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = topology.path_tables()
        assert len(tables._legs) == len(tables._descents) == len(one_per_pod) == 32
        assert build_peak < 2 * 2**20, f"table build peak {build_peak / 2**20:.2f} MB"
        assert peak - before < 64 * 2**10, f"per-pair growth {(peak - before) / 2**10:.1f} KB"


class TestClosStructure:
    def test_component_counts(self, clos44):
        # D_I=D_A=4: 2 intermediates, 4 aggs, 4 tors.
        assert len(clos44.cores()) == 2
        assert len(clos44.aggs()) == 4
        assert len(clos44.tors()) == 4
        assert len(clos44.hosts()) == 8

    def test_tors_dual_homed(self, clos44):
        for tor in clos44.tors():
            assert len(clos44.up_neighbors(tor)) == 2

    def test_intermediates_connect_to_all_aggs(self, clos44):
        for core in clos44.cores():
            assert sorted(clos44.down_neighbors(core)) == sorted(clos44.aggs())

    def test_inter_pod_path_count_is_2da(self, clos44):
        src, dst = "tor_0", "tor_2"
        assert clos44.pod_of(src) != clos44.pod_of(dst)
        paths = clos44.equal_cost_paths(src, dst)
        assert len(paths) == clos44.paths_per_inter_pod_pair == 2 * clos44.d_a

    def test_same_pair_tors_share_both_aggs(self, clos44):
        # tor_0 and tor_1 hang off the same aggregation pair.
        paths = clos44.equal_cost_paths("tor_0", "tor_1")
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_odd_radix_rejected(self):
        with pytest.raises(TopologyError):
            ClosNetwork(d_i=3, d_a=4)
        with pytest.raises(TopologyError):
            ClosNetwork(d_i=4, d_a=5)

    def test_clos_path_not_determined_by_core_alone(self, clos44):
        """The property motivating uphill+downhill tables (paper §2.3)."""
        paths = clos44.equal_cost_paths("tor_0", "tor_2")
        by_core = {}
        for p in paths:
            by_core.setdefault(p[2], []).append(p)
        assert all(len(group) > 1 for group in by_core.values())


class TestThreeTierStructure:
    def test_oversubscription_matches_paper(self, threetier_small):
        assert threetier_small.access_oversubscription == pytest.approx(2.5)
        assert threetier_small.aggregation_oversubscription == pytest.approx(1.5)

    def test_paper_sized_instance_oversubscription(self):
        # The full 8-core configuration from the Cisco reference design.
        topo = ThreeTier(num_cores=8, num_pods=2, access_per_pod=12, hosts_per_access=5)
        assert topo.access_oversubscription == pytest.approx(2.5)
        assert topo.aggregation_oversubscription == pytest.approx(1.5)

    def test_path_count(self, threetier_small):
        # 2 up-aggs x 4 cores x 2 down-aggs = 16 inter-pod paths.
        paths = threetier_small.equal_cost_paths("tor_0_0", "tor_1_0")
        assert len(paths) == 16

    def test_intra_pod_paths(self, threetier_small):
        paths = threetier_small.equal_cost_paths("tor_0_0", "tor_0_1")
        assert len(paths) == 2  # the two pod aggregation switches

    def test_invalid_params_rejected(self):
        with pytest.raises(TopologyError):
            ThreeTier(num_cores=0)


class TestMultiRootedHelpers:
    def test_tor_of_host(self, fattree4):
        assert fattree4.tor_of("h_0_0_0") == "tor_0_0"
        assert fattree4.tor_of("h_3_1_1") == "tor_3_1"

    def test_tor_of_rejects_switch(self, fattree4):
        with pytest.raises(TopologyError):
            fattree4.tor_of("agg_0_0")

    def test_hosts_of_tor(self, fattree4):
        assert sorted(fattree4.hosts_of_tor("tor_0_0")) == ["h_0_0_0", "h_0_0_1"]

    def test_hosts_of_tor_rejects_non_tor(self, fattree4):
        with pytest.raises(TopologyError):
            fattree4.hosts_of_tor("core_0_0")

    def test_downhill_chain_count_fattree(self, fattree4):
        # Each (core, tor) pair contributes exactly one chain in a fat-tree:
        # the core reaches every ToR through the unique agg in its row.
        chains = list(fattree4.downhill_chains())
        assert len(chains) == len(fattree4.cores()) * len(fattree4.tors())
        assert len(chains) == len(set(chains))

    def test_chains_to_tor_counts(self, fattree4, clos44):
        # Fat-tree: one address per core. Clos: cores x 2 parent aggs.
        assert len(fattree4.chains_to_tor("tor_0_0")) == 4
        assert len(clos44.chains_to_tor("tor_0")) == 4  # 2 cores x 2 aggs

    def test_host_path_expansion(self, fattree4):
        path = fattree4.equal_cost_paths("tor_0_0", "tor_1_0")[0]
        full = fattree4.host_path("h_0_0_0", "h_1_0_1", path)
        assert full[0] == "h_0_0_0" and full[-1] == "h_1_0_1"
        assert full[1:-1] == path

    def test_host_path_rejects_wrong_tor(self, fattree4):
        path = fattree4.equal_cost_paths("tor_0_0", "tor_1_0")[0]
        with pytest.raises(TopologyError):
            fattree4.host_path("h_2_0_0", "h_1_0_1", path)

    def test_host_path_rejects_same_host(self, fattree4):
        path = fattree4.equal_cost_paths("tor_0_0", "tor_0_0")[0]
        with pytest.raises(TopologyError):
            fattree4.host_path("h_0_0_0", "h_0_0_0", path)

    def test_validate_passes_on_families(self, fattree4, clos44, threetier_small):
        fattree4.validate()
        clos44.validate()
        threetier_small.validate()


class TestBuildTopology:
    def test_by_name(self):
        assert isinstance(build_topology("fattree", p=4), FatTree)
        assert isinstance(build_topology("clos", d_i=4, d_a=4), ClosNetwork)
        assert isinstance(build_topology("threetier", num_pods=2), ThreeTier)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_topology("hypercube")
