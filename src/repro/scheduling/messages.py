"""Control-plane message accounting (paper §4.3.4, Fig. 15).

The paper compares DARD's probe traffic with the centralized scheduler's
report/update traffic using these on-the-wire sizes:

* DARD host -> switch state query: 48 bytes
* DARD switch -> host state reply: 32 bytes
* ToR -> controller elephant-flow report: 80 bytes
* controller -> switch flow-table update: 72 bytes

They are fixed: every ledger and closed form reads the one
:data:`MESSAGE_SIZES` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class MessageSizes:
    """Control message sizes in bytes (defaults straight from the paper)."""

    dard_query: int = 48
    dard_reply: int = 32
    report_to_controller: int = 80
    update_from_controller: int = 72


#: The paper's sizes; the only sizes any scheduler or closed form uses.
MESSAGE_SIZES = MessageSizes()


@dataclass
class MessageLedger:
    """Counts control messages and bytes by kind."""

    bytes_by_kind: Dict[str, float] = field(default_factory=dict)
    count_by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, size_bytes: float, count: int = 1) -> None:
        """Account ``count`` messages of ``size_bytes`` each under ``kind``."""
        if count < 0 or size_bytes < 0:
            raise ValueError("message count and size must be non-negative")
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0.0) + size_bytes * count
        self.count_by_kind[kind] = self.count_by_kind.get(kind, 0) + count

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_by_kind.values())

    @property
    def total_messages(self) -> int:
        return sum(self.count_by_kind.values())

    def bytes_per_second(self, duration_s: float) -> float:
        """Average control bandwidth over an experiment (Fig. 15's y-axis)."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        return self.total_bytes / duration_s
