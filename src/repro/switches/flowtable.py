"""Longest-prefix-match flow tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import RoutingError
from repro.addressing.prefix import Prefix


@dataclass(frozen=True)
class TableEntry:
    """One forwarding rule: packets matching ``prefix`` exit via ``port``."""

    prefix: Prefix
    port: int


class FlowTable:
    """A longest-prefix-match table.

    Entries are grouped by prefix length so a lookup probes at most one
    candidate per distinct length, longest first — adequate for the handful
    of lengths a DARD fabric ever installs. Those buckets are the only copy
    of the rules: :meth:`rules`, :meth:`entries` and ``len`` read them too.
    """

    def __init__(self) -> None:
        #: prefix length -> {prefix value: egress port}.
        self._by_length: Dict[int, Dict[int, int]] = {}
        #: (mask, bucket) probe order, longest prefix first — rebuilt only
        #: when a new length appears, so lookup (the packet-level hot path)
        #: never re-sorts or recomputes masks.
        self._probe_order: List[tuple] = []

    def add(self, prefix: Prefix, port: int) -> None:
        """Install a rule; duplicate prefixes with conflicting ports are errors."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._probe_order = [
                (((1 << length) - 1) << (32 - length) if length else 0, table)
                for length, table in sorted(self._by_length.items(), reverse=True)
            ]
        existing = bucket.get(prefix.value)
        if existing is not None:
            if existing != port:
                raise RoutingError(
                    f"conflicting entries for {prefix}: ports {existing} and {port}"
                )
            return
        bucket[prefix.value] = port

    def lookup(self, addr: int) -> Optional[int]:
        """The egress port for ``addr``, or ``None`` if nothing matches."""
        for mask, bucket in self._probe_order:
            port = bucket.get(addr & mask)
            if port is not None:
                return port
        return None

    def rules(self) -> List[Tuple[int, int, int]]:
        """All rules as ``(value, length, port)``, sorted by (length desc, value)."""
        return [
            (value, length, port)
            for length, bucket in sorted(self._by_length.items(), reverse=True)
            for value, port in sorted(bucket.items())
        ]

    def entries(self) -> List[TableEntry]:
        """All rules, sorted by (length desc, value) for stable rendering."""
        return [TableEntry(Prefix(value, length), port) for value, length, port in self.rules()]

    def __len__(self) -> int:
        return sum(map(len, self._by_length.values()))

    def __contains__(self, prefix: Prefix) -> bool:
        return self._by_length.get(prefix.length, {}).get(prefix.value) is not None
