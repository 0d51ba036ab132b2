"""A compact TCP Reno-style sender/receiver pair.

Implements the mechanisms the validation needs — slow start, congestion
avoidance, triple-duplicate-ACK fast retransmit, and a coarse
retransmission timeout — over cumulative ACKs (no SACK). Multipath
striping sends successive segments over different paths weighted by split
ratios, which is what turns path delay spread into duplicate ACKs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import ConfigurationError
from repro.simulator.engine import EventEngine, EventHandle


@dataclass(frozen=True)
class TcpParams:
    """Tunables; defaults suit 100 Mbps / sub-ms-RTT fabrics."""

    mss_bytes: int = 1500
    initial_cwnd: float = 2.0
    initial_ssthresh: float = 64.0
    min_rto_s: float = 0.05
    dupack_threshold: int = 3


class TcpReceiver:
    """Cumulative-ACK receiver: tracks the in-order frontier."""

    def __init__(self, total_segments: int) -> None:
        self.total_segments = total_segments
        self._received = set()
        self.cumulative = 0  # next expected segment index

    def on_segment(self, seq: int) -> int:
        """Register an arriving segment; returns the cumulative ACK."""
        if seq >= self.cumulative:  # ignore stale duplicates below the frontier
            self._received.add(seq)
        while self.cumulative in self._received:
            self._received.discard(self.cumulative)
            self.cumulative += 1
        return self.cumulative

    @property
    def complete(self) -> bool:
        return self.cumulative >= self.total_segments


class TcpSender:
    """Reno-style congestion control over abstract transmit callbacks.

    The owner provides ``send_segment(seq) -> one-way delay or None`` —
    None signals a queue drop. ACKs come back via :meth:`on_ack`.
    """

    def __init__(
        self,
        engine: EventEngine,
        total_segments: int,
        send_segment: Callable[[int], None],
        params: TcpParams = TcpParams(),
    ) -> None:
        if total_segments < 1:
            raise ConfigurationError(f"need >= 1 segment, got {total_segments}")
        self.engine = engine
        self.total_segments = total_segments
        self.send_segment = send_segment
        self.params = params
        self.cwnd = params.initial_cwnd
        self.ssthresh = params.initial_ssthresh
        self.next_seq = 0
        self.highest_acked = 0  # segments below this are acked
        self.dup_acks = 0
        self.retransmissions = 0
        self._max_seq_sent = 0  # high-water mark; resends below it count as retx
        self.completed_at: Optional[float] = None
        self.on_complete: Optional[Callable[[], None]] = None
        self._srtt: Optional[float] = None
        self._rto_handle: Optional[EventHandle] = None
        self._send_times = {}
        self.timeouts = 0
        self._backoff = 1.0  # exponential RTO multiplier (Karn-style)

    # -- window pump --------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (send the initial window)."""
        self.pump()

    def pump(self) -> None:
        """Send while the congestion window has room."""
        while (
            self.next_seq < self.total_segments
            and self.next_seq < self.highest_acked + int(self.cwnd)
        ):
            seq = self.next_seq
            self.next_seq += 1
            if seq < self._max_seq_sent:
                self.retransmissions += 1
            else:
                self._max_seq_sent = seq + 1
            self._send_times[seq] = self.engine.now
            self.send_segment(seq)
        self._arm_rto()

    # -- ACK clocking ---------------------------------------------------------------

    def on_ack(self, cumulative: int) -> None:
        """Process a cumulative ACK: grow/shrink the window, detect loss."""
        if self.completed_at is not None:
            return
        if cumulative > self.highest_acked:
            newly = cumulative - self.highest_acked
            self.highest_acked = cumulative
            self.dup_acks = 0
            self._backoff = 1.0  # new data acked: the path is alive again
            self._update_rtt(cumulative - 1)
            for _ in range(newly):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0  # slow start
                else:
                    self.cwnd += 1.0 / self.cwnd  # congestion avoidance
            if self.highest_acked >= self.total_segments:
                self.completed_at = self.engine.now
                self._cancel_rto()
                if self.on_complete is not None:
                    self.on_complete()
                return
            self.pump()
        else:
            self.dup_acks += 1
            if self.dup_acks == self.params.dupack_threshold:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        """Three duplicate ACKs: resend the frontier segment, halve cwnd."""
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self.dup_acks = 0
        self.retransmissions += 1
        self._send_times[self.highest_acked] = self.engine.now
        self.send_segment(self.highest_acked)
        self._arm_rto()

    # -- RTO ---------------------------------------------------------------------------

    def _update_rtt(self, seq: int) -> None:
        sent = self._send_times.pop(seq, None)
        if sent is None:
            return
        sample = self.engine.now - sent
        self._srtt = sample if self._srtt is None else 0.875 * self._srtt + 0.125 * sample

    @property
    def rto_s(self) -> float:
        if self._srtt is None:
            return self.params.min_rto_s * self._backoff
        return max(self.params.min_rto_s, 4.0 * self._srtt) * self._backoff

    def _arm_rto(self) -> None:
        self._cancel_rto()
        if self.completed_at is not None:
            return
        self._rto_handle = self.engine.schedule_in(self.rto_s, self._on_timeout)

    def _cancel_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _on_timeout(self) -> None:
        """Coarse timeout: multiplicative back-off, then go-back-N.

        Without SACK a loss burst leaves the receiver full of holes the
        sender cannot see; rewinding ``next_seq`` to the ACK frontier
        resends everything outstanding (cheap segments the receiver
        already has are re-ACKed immediately) and recovers in one RTT
        instead of one RTO per hole.

        Each *consecutive* timeout doubles the RTO (capped at 64x), so a
        sender facing a black-holed path backs off 50ms, 100ms, 200ms, ...
        instead of hammering it; the first ACK of new data resets the
        multiplier.
        """
        self._rto_handle = None
        if self.completed_at is not None or self.highest_acked >= self.total_segments:
            return
        self.timeouts += 1
        self._backoff = min(64.0, self._backoff * 2.0)
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.params.initial_cwnd
        self.dup_acks = 0
        self.next_seq = self.highest_acked
        self.pump()
