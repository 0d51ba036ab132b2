"""Hierarchical prefix allocation over a multi-rooted tree (paper §2.3).

The allocator subdivides the base prefix level by level along every
downhill chain ``(core, agg, tor)`` of the topology:

* core ``i`` gets subdivision ``i`` of the base prefix;
* within core ``i``'s tree, the aggregation switch reached through core
  port ``j`` gets subdivision ``j``;
* within that, the ToR reached through aggregation port ``k`` gets
  subdivision ``k``;
* hosts get consecutive full addresses inside the chain prefix.

Ranks and ports are positions in sorted-name order, so an address is bit
packing by construction::

    base | core rank | agg port | ToR port | host index

Nothing per address is stored. The class keeps one rank table per level
(core rank, per-core agg port, per-agg ToR port, per-ToR host index) and
their inverse lists — O(switch links) entries, not one per (host, chain) —
and every query packs or splits the bit fields against them.

The paper fixes 6 bits per level (supporting p <= 16 fat-trees under
``10.0.0.0/8``); we default to 6 bits but auto-widen per level when the
topology needs more branches. When no base prefix is given and the
default ``10.0.0.0/8`` cannot fit the widened hierarchy (p=64 fat-trees
need 27 subdivision bits), the default base itself auto-shortens to the
longest prefix that can — topologies that fit under /8 keep their exact
historical addresses. An explicitly passed base is never adjusted;
:class:`AddressingError` is raised if the hierarchy cannot fit under it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import AddressingError
from repro.topology.multirooted import Chain, MultiRootedTopology
from repro.addressing.prefix import Prefix


def _bits_needed(count: int, minimum: int) -> int:
    bits = minimum
    while (1 << bits) < count:
        bits += 1
    return bits


def _ranks(names: List[str]) -> Dict[str, int]:
    return {name: rank for rank, name in enumerate(names)}


class HierarchicalAddressing:
    """Prefix allocation and host multi-address assignment for a topology."""

    def __init__(
        self,
        topology: MultiRootedTopology,
        base: Prefix = None,
        bits_per_level: int = 6,
    ) -> None:
        self.topology = topology
        # Rank tables in sorted-name order, each with its inverse list.
        self._cores: List[str] = sorted(topology.cores())
        self._core_rank = _ranks(self._cores)
        self._core_aggs: Dict[str, List[str]] = {
            core: sorted(topology.down_neighbors(core)) for core in self._cores
        }
        self._agg_tors: Dict[str, List[str]] = {
            agg: sorted(topology.down_neighbors(agg)) for agg in topology.aggs()
        }
        self._tor_hosts: Dict[str, List[str]] = {
            tor: sorted(topology.hosts_of_tor(tor)) for tor in topology.tors()
        }
        self._agg_port = {core: _ranks(aggs) for core, aggs in self._core_aggs.items()}
        self._tor_port = {agg: _ranks(tors) for agg, tors in self._agg_tors.items()}
        self._host_slot: Dict[str, Tuple[str, int]] = {
            host: (tor, index)
            for tor, hosts in self._tor_hosts.items()
            for index, host in enumerate(hosts)
        }

        max_aggs = max(len(aggs) for aggs in self._core_aggs.values())
        max_tors = max(len(tors) for tors in self._agg_tors.values())
        max_hosts = max(len(hosts) for hosts in self._tor_hosts.values())
        self.core_bits = _bits_needed(len(self._cores), bits_per_level)
        self.agg_bits = _bits_needed(max_aggs, bits_per_level)
        self.tor_bits = _bits_needed(max_tors, bits_per_level)
        level_bits = self.core_bits + self.agg_bits + self.tor_bits
        if base is None:
            base = self._default_base(level_bits, _bits_needed(max_hosts, 1))
        self.base = base
        host_bits = 32 - self.base.length - level_bits
        if host_bits < 1 or (1 << host_bits) < max_hosts:
            raise AddressingError(
                "address space exhausted: "
                f"base /{self.base.length} + {self.core_bits}+{self.agg_bits}+{self.tor_bits} "
                f"level bits leave {host_bits} host bits for {max_hosts} hosts per ToR"
            )
        self.host_bits = host_bits
        # Field shifts of the packed address, low to high.
        self._tor_shift = host_bits
        self._agg_shift = self._tor_shift + self.tor_bits
        self._core_shift = self._agg_shift + self.agg_bits
        self._base_shift = self._core_shift + self.core_bits

    @staticmethod
    def _default_base(level_bits: int, min_host_bits: int) -> Prefix:
        """The paper's ``10.0.0.0/8``, auto-shortened only when it must be.

        Topologies whose hierarchy fits in 24 bits keep the historical /8
        (and thus their exact historical addresses); larger ones (p=64
        fat-trees) get the longest base prefix that still leaves room, so
        the level subdivision stays identical and only the base shrinks.
        """
        length = min(8, 32 - level_bits - min_host_bits)
        if length < 0:
            raise AddressingError(
                f"hierarchy needs {level_bits} level bits + {min_host_bits} host "
                "bits: does not fit in a 32-bit address space"
            )
        ten = 10 << 24
        value = (ten >> (32 - length)) << (32 - length) if length else 0
        return Prefix(value, length)

    # -- bit fields --------------------------------------------------------------

    def _pack(self, core_rank: int, agg_port: int, tor_port: int, host_index: int) -> int:
        return (
            self.base.value
            | core_rank << self._core_shift
            | agg_port << self._agg_shift
            | tor_port << self._tor_shift
            | host_index
        )

    def _chain_ports(self, chain: Chain) -> Tuple[int, int, int]:
        """``(core rank, agg port, ToR port)`` of a downhill chain."""
        try:
            core, agg, tor = chain
            return (
                self._core_rank[core],
                self._agg_port[core][agg],
                self._tor_port[agg][tor],
            )
        except (KeyError, TypeError, ValueError):
            raise AddressingError(f"no such downhill chain {chain!r}") from None

    def _slot_of(self, host: str) -> Tuple[str, int]:
        """``(ToR, host index)`` of a host."""
        slot = self._host_slot.get(host)
        if slot is None:
            raise AddressingError(f"{host!r} is not an addressed host")
        return slot

    def _chains_of(self, host: str) -> Tuple[List[Chain], int]:
        """The host's chains in core-major order, and its host index.

        Ranks and ports are sorted-name positions, so sorting the chain
        tuples orders them by (core rank, agg port).
        """
        tor, index = self._slot_of(host)
        chains = sorted(self.topology.chains_to_tor(tor))
        if not chains:
            raise AddressingError(f"{host!r} is not an addressed host")
        return chains, index

    # -- queries ---------------------------------------------------------------

    def core_prefix(self, core: str) -> Prefix:
        """The prefix owned by a core switch (root of one tree)."""
        rank = self._core_rank.get(core)
        if rank is None:
            raise AddressingError(f"{core!r} is not a core switch")
        return self.base.subdivide(rank, self.core_bits)

    def agg_prefix(self, core: str, agg: str) -> Prefix:
        """The prefix core ``core`` allocated to aggregation switch ``agg``."""
        port = self._agg_port.get(core, {}).get(agg)
        if port is None:
            raise AddressingError(f"no allocation from {core!r} to {agg!r}")
        return self.core_prefix(core).subdivide(port, self.agg_bits)

    def chain_prefix(self, chain: Chain) -> Prefix:
        """The ToR-level prefix of a downhill chain (core, agg, tor)."""
        core_rank, agg_port, tor_port = self._chain_ports(chain)
        return (
            self.base.subdivide(core_rank, self.core_bits)
            .subdivide(agg_port, self.agg_bits)
            .subdivide(tor_port, self.tor_bits)
        )

    def addresses_of(self, host: str) -> Dict[Chain, int]:
        """All addresses of ``host``, keyed by the chain that allocated them.

        Core-major order: by core rank, then by agg port within the core.
        """
        chains, index = self._chains_of(host)
        return {chain: self._pack(*self._chain_ports(chain), index) for chain in chains}

    def address_of(self, host: str, chain: Chain) -> int:
        """The host's address on one specific downhill chain."""
        tor, index = self._slot_of(host)
        core_rank, agg_port, tor_port = self._chain_ports(chain)
        if chain[2] != tor:
            raise AddressingError(f"host {host!r} has no address on chain {chain!r}")
        return self._pack(core_rank, agg_port, tor_port, index)

    def owner_of(self, addr: int) -> Tuple[str, Chain]:
        """Reverse lookup: which (host, chain) does an address belong to.

        Splits the address into its bit fields; an address outside the
        base, or any field past its parent's fan-out, is unallocated.
        """
        if addr >> self._base_shift != self.base.value >> self._base_shift:
            raise AddressingError(f"unallocated address {addr}")
        core_rank = (addr >> self._core_shift) & ((1 << self.core_bits) - 1)
        agg_port = (addr >> self._agg_shift) & ((1 << self.agg_bits) - 1)
        tor_port = (addr >> self._tor_shift) & ((1 << self.tor_bits) - 1)
        host_index = addr & ((1 << self.host_bits) - 1)
        try:
            core = self._cores[core_rank]
            agg = self._core_aggs[core][agg_port]
            tor = self._agg_tors[agg][tor_port]
            host = self._tor_hosts[tor][host_index]
        except IndexError:
            raise AddressingError(f"unallocated address {addr}") from None
        return host, (core, agg, tor)

    def num_addresses_per_host(self, host: str) -> int:
        """How many locator addresses the host holds (one per chain)."""
        return len(self._chains_of(host)[0])

    def all_chains(self) -> List[Chain]:
        """Every downhill chain that received a prefix."""
        return list(self.topology.downhill_chains())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalAddressing(base={self.base}, "
            f"bits=({self.core_bits},{self.agg_bits},{self.tor_bits},{self.host_bits}))"
        )
