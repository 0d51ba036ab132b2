"""Computed addressing against the eager allocator it replaced.

:class:`HierarchicalAddressing` keeps only rank tables and computes every
address, owner and prefix by bit packing. :func:`eager_allocation` is
the allocator the class used to run at construction — one stored entry
per (host, chain) — kept here as the oracle: at p <= 16 it is cheap
enough to compare every value exhaustively.
"""

import tracemalloc
from typing import Dict, NamedTuple, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import HierarchicalAddressing
from repro.addressing.prefix import Prefix, parse_address
from repro.common.errors import AddressingError
from repro.topology import ClosNetwork, FatTree, ThreeTier
from repro.topology.custom import TopologySpec, build_custom


class EagerAllocation(NamedTuple):
    core_prefix: Dict[str, Prefix]
    agg_prefix: Dict[Tuple[str, str], Prefix]
    chain_prefix: Dict[Tuple[str, str, str], Prefix]
    host_addresses: Dict[str, Dict[Tuple[str, str, str], int]]
    owner: Dict[int, Tuple[str, Tuple[str, str, str]]]


def eager_bit_widths(topology, bits_per_level=6):
    """The level widths as the eager allocator derived them."""

    def bits(count):
        width = bits_per_level
        while (1 << width) < count:
            width += 1
        return width

    cores = sorted(topology.cores())
    return (
        bits(len(cores)),
        bits(max(len(topology.down_neighbors(c)) for c in cores)),
        bits(max(len(topology.down_neighbors(a)) for a in topology.aggs())),
    )


def eager_allocation(addressing) -> EagerAllocation:
    """Walk every downhill chain and store every prefix and address."""
    topo = addressing.topology
    alloc = EagerAllocation({}, {}, {}, {}, {})
    for core_index, core in enumerate(sorted(topo.cores())):
        core_pfx = addressing.base.subdivide(core_index, addressing.core_bits)
        alloc.core_prefix[core] = core_pfx
        for agg_port, agg in enumerate(sorted(topo.down_neighbors(core))):
            agg_pfx = core_pfx.subdivide(agg_port, addressing.agg_bits)
            alloc.agg_prefix[(core, agg)] = agg_pfx
            for tor_port, tor in enumerate(sorted(topo.down_neighbors(agg))):
                chain = (core, agg, tor)
                chain_pfx = agg_pfx.subdivide(tor_port, addressing.tor_bits)
                alloc.chain_prefix[chain] = chain_pfx
                for host_index, host in enumerate(sorted(topo.hosts_of_tor(tor))):
                    addr = chain_pfx.address(host_index)
                    alloc.host_addresses.setdefault(host, {})[chain] = addr
                    alloc.owner[addr] = (host, chain)
    return alloc


def uneven_custom():
    """Uneven fan-outs at every level, a dual-homed ToR and a hostless ToR."""
    return build_custom(
        TopologySpec(
            cores=["c1", "c0", "c2"],
            aggs={"a0": 0, "a1": 0, "a2": 1},
            tors={"t0": 0, "t1": 0, "t2": 1, "t3": 1},
            hosts={"h0": "t0", "h1": "t0", "h2": "t0", "h3": "t1", "h4": "t2"},
            core_agg_links=[
                ("c0", "a0"), ("c0", "a1"), ("c0", "a2"),
                ("c1", "a2"),
                ("c2", "a0"), ("c2", "a2"),
            ],
            agg_tor_links=[
                ("a0", "t0"), ("a0", "t1"),
                ("a1", "t0"),
                ("a2", "t2"), ("a2", "t3"),
            ],
        )
    )


TOPOLOGIES = {
    "fattree4": lambda: FatTree(p=4),
    "fattree8": lambda: FatTree(p=8),
    "fattree16": lambda: FatTree(p=16),
    "clos": lambda: ClosNetwork(d_i=4, d_a=6, hosts_per_tor=3),
    "threetier": lambda: ThreeTier(
        num_cores=4, num_pods=2, aggs_per_pod=2, access_per_pod=6, hosts_per_access=5
    ),
    "custom": uneven_custom,
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def case(request):
    addressing = HierarchicalAddressing(TOPOLOGIES[request.param]())
    return addressing, eager_allocation(addressing)


def pack(addressing, core, agg, tor, host):
    """An address from raw field values, bypassing the rank tables."""
    tor_shift = addressing.host_bits
    agg_shift = tor_shift + addressing.tor_bits
    core_shift = agg_shift + addressing.agg_bits
    return (
        addressing.base.value
        | core << core_shift
        | agg << agg_shift
        | tor << tor_shift
        | host
    )


class TestMatchesEagerOracle:
    def test_bit_widths(self, case):
        addressing, _ = case
        widths = (addressing.core_bits, addressing.agg_bits, addressing.tor_bits)
        assert widths == eager_bit_widths(addressing.topology)

    def test_every_address_in_core_major_order(self, case):
        addressing, eager = case
        for host, addresses in eager.host_addresses.items():
            computed = addressing.addresses_of(host)
            assert list(computed.items()) == list(addresses.items())
            assert addressing.num_addresses_per_host(host) == len(addresses)
            for chain, addr in addresses.items():
                assert addressing.address_of(host, chain) == addr

    def test_owner_round_trip(self, case):
        addressing, eager = case
        for addr, owner in eager.owner.items():
            assert addressing.owner_of(addr) == owner

    def test_every_prefix(self, case):
        addressing, eager = case
        for core, prefix in eager.core_prefix.items():
            assert addressing.core_prefix(core) == prefix
        for (core, agg), prefix in eager.agg_prefix.items():
            assert addressing.agg_prefix(core, agg) == prefix
        for chain, prefix in eager.chain_prefix.items():
            assert addressing.chain_prefix(chain) == prefix
        assert addressing.all_chains() == list(eager.chain_prefix)

    def test_unaddressed_hosts_agree(self, case):
        addressing, eager = case
        for host in addressing.topology.hosts():
            if host not in eager.host_addresses:
                with pytest.raises(AddressingError):
                    addressing.addresses_of(host)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_addresses_resolve_like_the_dict(self, case, data):
        """Addresses whose fields sit at or just past some parent's
        fan-out resolve to the eager owner, or raise exactly where the
        eager dict had no entry."""
        addressing, eager = case
        topo = addressing.topology
        limits = (
            len(topo.cores()),
            max(len(topo.down_neighbors(c)) for c in topo.cores()),
            max(len(topo.down_neighbors(a)) for a in topo.aggs()),
            max(len(topo.hosts_of_tor(t)) for t in topo.tors()),
        )
        fields = [data.draw(st.integers(0, limit)) for limit in limits]
        addr = pack(addressing, *fields)
        owner = eager.owner.get(addr)
        if owner is None:
            with pytest.raises(AddressingError):
                addressing.owner_of(addr)
        else:
            assert addressing.owner_of(addr) == owner


class TestOwnerOfRejects:
    @pytest.fixture(scope="class")
    def fattree(self):
        return HierarchicalAddressing(FatTree(p=4))

    @pytest.fixture(scope="class")
    def custom(self):
        return HierarchicalAddressing(uneven_custom())

    def test_valid_fields_resolve(self, fattree):
        assert fattree.owner_of(pack(fattree, 3, 3, 1, 1)) == (
            "h_3_1_1", ("core_1_1", "agg_3_1", "tor_3_1")
        )

    @pytest.mark.parametrize(
        "addr",
        [
            parse_address("11.0.0.0"),
            parse_address("9.255.255.255"),
            -1,
            1 << 32,
            (1 << 32) | parse_address("10.0.0.0"),
        ],
    )
    def test_outside_the_base(self, fattree, addr):
        with pytest.raises(AddressingError):
            fattree.owner_of(addr)

    @pytest.mark.parametrize(
        "fields",
        [
            (4, 0, 0, 0),  # 4 cores
            (0, 4, 0, 0),  # 4 aggs under each core
            (0, 0, 2, 0),  # 2 ToRs under each agg
            (0, 0, 0, 2),  # 2 hosts under each ToR
        ],
    )
    def test_field_past_fan_out(self, fattree, fields):
        with pytest.raises(AddressingError):
            fattree.owner_of(pack(fattree, *fields))

    @pytest.mark.parametrize(
        "valid, invalid",
        [
            # c0 (rank 0) reaches 3 aggs, c1 (rank 1) only a2.
            ((0, 2, 0, 0), (1, 1, 0, 0)),
            # a0 reaches 2 ToRs, a1 only t0.
            ((0, 0, 1, 0), (0, 1, 1, 0)),
            # t0 holds 3 hosts, t1 one.
            ((0, 0, 0, 2), (0, 0, 1, 1)),
            # t3 holds none.
            ((0, 2, 0, 0), (0, 2, 1, 0)),
        ],
    )
    def test_fan_out_is_per_parent(self, custom, valid, invalid):
        custom.owner_of(pack(custom, *valid))
        with pytest.raises(AddressingError):
            custom.owner_of(pack(custom, *invalid))


def test_p16_construction_stores_no_per_address_state():
    """Rank tables are O(switch links): building p=16 addressing (65,536
    addresses) must stay far below the ~12 MB that storing every address
    in dicts costs."""
    topology = FatTree(p=16)
    tracemalloc.start()
    try:
        addressing = HierarchicalAddressing(topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert addressing.num_addresses_per_host("h_0_0_0") == 64
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
