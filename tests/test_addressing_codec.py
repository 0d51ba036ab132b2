"""Tests for the path <-> address-pair codec."""

import pytest

from repro.common.errors import AddressingError, RoutingError
from repro.addressing import HierarchicalAddressing, PathCodec


class TestEncodeDecodeFatTree:
    def test_round_trip_all_inter_pod_paths(self, fattree4, fattree4_codec):
        src, dst = "h_0_0_0", "h_1_1_1"
        paths = fattree4.equal_cost_paths("tor_0_0", "tor_1_1")
        for path in paths:
            src_addr, dst_addr = fattree4_codec.encode(src, dst, path)
            assert fattree4_codec.decode(src_addr, dst_addr) == path

    def test_each_path_has_distinct_address_pair(self, fattree4, fattree4_codec):
        src, dst = "h_0_0_0", "h_2_0_0"
        pairs = {
            fattree4_codec.encode(src, dst, p)
            for p in fattree4.equal_cost_paths("tor_0_0", "tor_2_0")
        }
        assert len(pairs) == 4

    def test_intra_pod_round_trip(self, fattree4, fattree4_codec):
        src, dst = "h_0_0_0", "h_0_1_0"
        for path in fattree4.equal_cost_paths("tor_0_0", "tor_0_1"):
            src_addr, dst_addr = fattree4_codec.encode(src, dst, path)
            assert fattree4_codec.decode(src_addr, dst_addr) == path

    def test_same_tor_decodes_trivially(self, fattree4, fattree4_codec):
        src, dst = "h_0_0_0", "h_0_0_1"
        src_addr, dst_addr = fattree4_codec.encode(src, dst, ("tor_0_0",))
        assert fattree4_codec.decode(src_addr, dst_addr) == ("tor_0_0",)

    def test_endpoints(self, fattree4, fattree4_codec):
        src, dst = "h_0_0_0", "h_3_1_1"
        path = fattree4.equal_cost_paths("tor_0_0", "tor_3_1")[2]
        src_addr, dst_addr = fattree4_codec.encode(src, dst, path)
        assert fattree4_codec.endpoints(src_addr, dst_addr) == (src, dst)


class TestEncodeValidation:
    def test_path_must_connect_the_hosts(self, fattree4, fattree4_codec):
        path = fattree4.equal_cost_paths("tor_0_0", "tor_1_0")[0]
        with pytest.raises(AddressingError):
            fattree4_codec.encode("h_2_0_0", "h_1_0_0", path)
        with pytest.raises(AddressingError):
            fattree4_codec.encode("h_0_0_0", "h_2_0_0", path)

    def test_bad_path_length(self, fattree4, fattree4_codec):
        with pytest.raises(AddressingError):
            fattree4_codec.encode("h_0_0_0", "h_1_0_0", ("tor_0_0", "tor_1_0"))


class TestDecodeValidation:
    def test_cross_tree_pair_rejected(self, fattree4, fattree4_addressing, fattree4_codec):
        """Addresses rooted at different cores encode no valid path."""
        src, dst = "h_0_0_0", "h_1_0_0"
        src_chains = fattree4_addressing.addresses_of(src)
        dst_chains = fattree4_addressing.addresses_of(dst)
        (c1, a1, t1), src_addr = next(iter(src_chains.items()))
        # Pick a destination chain under a DIFFERENT core.
        (c2, a2, t2), dst_addr = next(
            (chain, addr) for chain, addr in dst_chains.items() if chain[0] != c1
        )
        with pytest.raises(RoutingError):
            fattree4_codec.decode(src_addr, dst_addr)

    def test_same_host_rejected(self, fattree4, fattree4_addressing, fattree4_codec):
        addrs = list(fattree4_addressing.addresses_of("h_0_0_0").values())
        with pytest.raises(RoutingError):
            fattree4_codec.decode(addrs[0], addrs[1])


class TestClosAndThreeTier:
    @pytest.mark.parametrize("kind", ["clos", "threetier"])
    def test_round_trip_every_path(self, kind, clos44, threetier_small):
        topo = clos44 if kind == "clos" else threetier_small
        codec = PathCodec(HierarchicalAddressing(topo))
        hosts = sorted(topo.hosts())
        src = hosts[0]
        dst = next(h for h in hosts if topo.pod_of(h) != topo.pod_of(src))
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        pairs = set()
        for path in paths:
            src_addr, dst_addr = codec.encode(src, dst, path)
            assert codec.decode(src_addr, dst_addr) == path
            pairs.add((src_addr, dst_addr))
        # Distinct paths need distinct address pairs for DARD to steer.
        assert len(pairs) == len(paths)
