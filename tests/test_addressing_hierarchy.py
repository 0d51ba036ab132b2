"""Tests for hierarchical prefix allocation and host multi-addressing."""

import pytest

from repro.common.errors import AddressingError
from repro.addressing import HierarchicalAddressing, IdMapper
from repro.addressing.prefix import Prefix
from repro.topology import ClosNetwork, FatTree


class TestAllocationStructure:
    def test_addresses_per_host_fattree(self, fattree4, fattree4_addressing):
        """Every fat-tree host gets p^2/4 addresses, one per core (paper
        Figure 2: 'every end host gets four addresses')."""
        for host in fattree4.hosts():
            assert fattree4_addressing.num_addresses_per_host(host) == 4

    def test_addresses_per_host_clos(self, clos44, clos44_addressing):
        # D_A addresses per host: 2 intermediates x 2 parent aggs.
        for host in clos44.hosts():
            assert clos44_addressing.num_addresses_per_host(host) == 4

    def test_core_prefixes_disjoint(self, fattree4, fattree4_addressing):
        cores = fattree4.cores()
        prefixes = [fattree4_addressing.core_prefix(c) for c in cores]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.overlaps(b)

    def test_sibling_chain_prefixes_disjoint(self, fattree4, fattree4_addressing):
        chains = list(fattree4.downhill_chains())
        prefixes = [fattree4_addressing.chain_prefix(c) for c in chains]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.overlaps(b)

    def test_chain_prefix_nested_in_agg_and_core(self, fattree4, fattree4_addressing):
        for core, agg, tor in fattree4.downhill_chains():
            core_pfx = fattree4_addressing.core_prefix(core)
            agg_pfx = fattree4_addressing.agg_prefix(core, agg)
            chain_pfx = fattree4_addressing.chain_prefix((core, agg, tor))
            assert core_pfx.contains_prefix(agg_pfx)
            assert agg_pfx.contains_prefix(chain_pfx)

    def test_every_address_unique(self, fattree4, fattree4_addressing):
        seen = set()
        for host in fattree4.hosts():
            for addr in fattree4_addressing.addresses_of(host).values():
                assert addr not in seen
                seen.add(addr)

    def test_address_encodes_allocation_chain(self, fattree4, fattree4_addressing):
        """One address uniquely encodes the switch sequence that allocated
        it (the property path encoding relies on, §2.3)."""
        for host in fattree4.hosts():
            for chain, addr in fattree4_addressing.addresses_of(host).items():
                assert fattree4_addressing.owner_of(addr) == (host, chain)

    def test_all_addresses_inside_base(self, fattree4, fattree4_addressing):
        base = fattree4_addressing.base
        for host in fattree4.hosts():
            for addr in fattree4_addressing.addresses_of(host).values():
                assert base.contains_address(addr)


class TestAllocationErrors:
    def test_unknown_core(self, fattree4_addressing):
        with pytest.raises(AddressingError):
            fattree4_addressing.core_prefix("tor_0_0")

    def test_unknown_chain(self, fattree4_addressing):
        with pytest.raises(AddressingError):
            fattree4_addressing.chain_prefix(("core_0_0", "agg_1_0", "tor_0_0"))

    def test_unknown_host(self, fattree4_addressing):
        with pytest.raises(AddressingError):
            fattree4_addressing.addresses_of("agg_0_0")

    def test_unknown_host_address_count(self, fattree4_addressing):
        with pytest.raises(AddressingError):
            fattree4_addressing.num_addresses_per_host("agg_0_0")
        with pytest.raises(AddressingError):
            fattree4_addressing.num_addresses_per_host("ghost")

    def test_unallocated_address(self, fattree4_addressing):
        with pytest.raises(AddressingError):
            fattree4_addressing.owner_of(1)

    def test_host_missing_chain(self, fattree4, fattree4_addressing):
        chain = next(iter(fattree4.downhill_chains()))
        other_tor_host = next(
            h for h in fattree4.hosts() if fattree4.tor_of(h) != chain[2]
        )
        with pytest.raises(AddressingError):
            fattree4_addressing.address_of(other_tor_host, chain)

    def test_exhausted_space_raises(self):
        # A /28 base cannot fit a fat-tree's four 6-bit-minimum levels.
        with pytest.raises(AddressingError):
            HierarchicalAddressing(FatTree(p=4), base=Prefix.parse("10.0.0.0/28"))


class TestAutoWidening:
    def test_wider_level_bits_when_needed(self):
        """p=32 would need 256 cores > 2^6; the allocator widens the core
        field instead of failing (the paper's fixed 6-bit scheme caps at
        p=16)."""
        topo = FatTree(p=4)
        addressing = HierarchicalAddressing(topo, bits_per_level=2)
        # 4 cores fit in 2 bits; all good with narrower levels too.
        assert addressing.core_bits == 2
        for host in topo.hosts():
            assert addressing.num_addresses_per_host(host) == 4

    def test_bits_reported(self, fattree4_addressing):
        assert fattree4_addressing.core_bits == 6
        assert fattree4_addressing.host_bits == 32 - 8 - 18

    def test_default_base_stays_slash_8_when_it_fits(self, fattree4_addressing):
        # Topologies that fit under the paper's /8 keep their exact
        # historical addresses — the base only shrinks when it must.
        assert str(fattree4_addressing.base) == "10.0.0.0/8"

    def test_default_base_auto_shortens_when_hierarchy_overflows(self):
        """p=64 fat-trees need 10+6+6 level bits + 5 host bits = 27 > 24;
        with no explicit base the allocator shortens the default /8 to the
        longest base that fits, rather than failing."""
        topo = FatTree(p=4)
        # Force the overflow cheaply: 10-bit levels cost 30 bits, leaving
        # fewer than the 1 host bit p=4's two-host ToRs need under /8.
        addressing = HierarchicalAddressing(topo, bits_per_level=10)
        assert addressing.base.length < 8
        assert addressing.host_bits >= 1
        for host in topo.hosts():
            assert addressing.num_addresses_per_host(host) == 4

    def test_p64_boundary_pins_default_base(self):
        """Regression pin for the p=64 scale target: its hierarchy costs
        10 (core) + 6 (agg) + 6 (tor) level bits plus 5 host bits = 27,
        three over the /8's 24-bit budget. The auto-shortened default
        must be exactly the /5 that preserves 10.0.0.0's leading bits —
        not some other length, and not an error."""
        base = HierarchicalAddressing._default_base(22, 5)
        assert str(base) == "8.0.0.0/5"
        # At exactly 24 bits the historical /8 still fits and survives.
        assert str(HierarchicalAddressing._default_base(19, 5)) == "10.0.0.0/8"
        # Past 32 bits nothing fits: explicit error, not a silent wrap.
        with pytest.raises(AddressingError):
            HierarchicalAddressing._default_base(30, 3)

    def test_explicit_base_is_never_adjusted(self):
        with pytest.raises(AddressingError):
            HierarchicalAddressing(
                FatTree(p=4), base=Prefix.parse("10.0.0.0/8"), bits_per_level=10
            )


class TestIdMapper:
    def test_round_trip(self, fattree4):
        mapper = IdMapper(fattree4.hosts())
        for host in fattree4.hosts():
            assert mapper.host_of(mapper.id_of(host)) == host

    def test_ids_outside_locator_space(self, fattree4, fattree4_addressing):
        mapper = IdMapper(fattree4.hosts())
        for host in fattree4.hosts():
            with pytest.raises(AddressingError):
                fattree4_addressing.owner_of(mapper.id_of(host))

    def test_unknown_lookups(self, fattree4):
        mapper = IdMapper(fattree4.hosts())
        with pytest.raises(AddressingError):
            mapper.id_of("ghost")
        with pytest.raises(AddressingError):
            mapper.host_of(12345)

    def test_len_and_contains(self, fattree4):
        mapper = IdMapper(fattree4.hosts())
        assert len(mapper) == 16
        assert "h_0_0_0" in mapper
        assert "ghost" not in mapper

    def test_overflow_rejected(self):
        hosts = [f"h{i}" for i in range(5)]
        with pytest.raises(AddressingError):
            IdMapper(hosts, id_space=Prefix.parse("192.168.0.0/30"))
