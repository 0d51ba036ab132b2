"""Pluggable elephant detection: age threshold vs EWMA prediction.

DARD's built-in detector is the paper's: a flow becomes an elephant once
it has lived ``elephant_age_s`` seconds (10 s, §3.3). That is the
weakest way to find the flows worth moving — under incast bursts and
heavy-tailed empirical sizes, a true elephant carries traffic for a full
threshold period before the control plane may touch it.

:class:`PredictiveElephantDetector` implements the EWMA-over-first-RTTs
classifier family of Alawadi et al. ("Methods for Predicting Behavior of
Elephant Flows in Data Center Networks"): sample a flow's delivered rate
over its first few RTT-scale intervals, keep an exponentially weighted
moving average, and promote as soon as the *projected lifetime* —
current age plus remaining bytes at the EWMA rate — crosses the
threshold age. A flow sampled at zero rate (stalled behind a failure or
a saturated cable) projects an infinite lifetime and is promoted
immediately, which is exactly when adaptive routing should take over.

The detector never *misses* relative to the threshold baseline: an
age-threshold fallback timer fires at ``elephant_age_s`` for every flow
the predictor left undecided, so the promoted set is a superset reached
earlier. Every event it schedules is a deterministic function of the
flow's start time, preserving the simulator's seed-purity contract.

Wired through ``Network(elephant_detector="predictive")``, which builds
the detector with itself; the default ``"threshold"`` keeps the paper's
exact historical event sequence. The sampling knobs are fixed module
constants, and the promotion age is the network's ``elephant_age_s``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.flows import Flow
    from repro.simulator.network import Network

__all__ = ["PredictiveElephantDetector"]

#: spacing of the rate probes (RTT scale against the simulator's
#: millisecond link delays).
SAMPLE_INTERVAL_S = 0.25
#: probes before the predictor gives up on an early call and leaves the
#: flow to the age fallback.
MAX_SAMPLES = 8
#: probes required before a promotion may fire (guards against
#: classifying on one cold-start interval).
MIN_SAMPLES = 2
#: weight of the newest observation in the EWMA.
EWMA_ALPHA = 0.5


class _TrackState:
    """Per-flow sampling state (delivered-byte baseline + EWMA)."""

    __slots__ = ("sent_bytes", "ewma_bps", "samples")

    def __init__(self) -> None:
        self.sent_bytes = 0.0
        self.ewma_bps = 0.0
        self.samples = 0


class PredictiveElephantDetector:
    """EWMA-over-first-RTTs elephant classifier (Alawadi et al.).

    Samples every :data:`SAMPLE_INTERVAL_S`, promotes after at least
    :data:`MIN_SAMPLES` probes once the projected lifetime reaches the
    network's ``elephant_age_s``, and leaves a flow still undecided after
    :data:`MAX_SAMPLES` probes to the age fallback at that same age — the
    elephant definition is unchanged, only detection latency moves.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        self._tracked: Dict[int, _TrackState] = {}
        self._stat_flows_seen = 0
        self._stat_samples = 0
        self._stat_early = 0
        self._stat_fallback = 0
        self._detection_age_sum_s = 0.0

    def on_flow_started(self, flow: "Flow") -> None:
        """Arm sampling and the age fallback for a freshly started flow."""
        engine = self.network.engine
        self._stat_flows_seen += 1
        self._tracked[flow.flow_id] = _TrackState()
        engine.schedule_in(SAMPLE_INTERVAL_S, lambda fid=flow.flow_id: self._sample(fid))
        engine.schedule_in(
            self.network.elephant_age_s, lambda fid=flow.flow_id: self._age_fallback(fid)
        )

    # -- sampling ---------------------------------------------------------------

    def _sample(self, flow_id: int) -> None:
        network = self.network
        flow = network.flows.get(flow_id)
        state = self._tracked.get(flow_id)
        if flow is None or state is None or flow.is_elephant:
            self._tracked.pop(flow_id, None)
            return
        # Settle byte counters up to now so the delivered-byte delta is
        # exact; settle is idempotent and itself event-deterministic.
        network._settle()
        sent = flow.size_bytes + flow.retransmitted_bytes - flow.remaining_bytes
        observed_bps = max(0.0, sent - state.sent_bytes) * 8.0 / SAMPLE_INTERVAL_S
        state.sent_bytes = sent
        if state.samples == 0:
            state.ewma_bps = observed_bps
        else:
            state.ewma_bps = (
                EWMA_ALPHA * observed_bps + (1.0 - EWMA_ALPHA) * state.ewma_bps
            )
        state.samples += 1
        self._stat_samples += 1
        if (
            state.samples >= MIN_SAMPLES
            and self._projected_lifetime_s(flow, state.ewma_bps)
            >= network.elephant_age_s
        ):
            self._promote(flow, early=True)
            return
        if state.samples < MAX_SAMPLES:
            network.engine.schedule_in(SAMPLE_INTERVAL_S, lambda fid=flow_id: self._sample(fid))
        else:
            # Undecided within the sampling window: the age fallback
            # scheduled at flow start still guarantees threshold parity.
            del self._tracked[flow_id]

    def _projected_lifetime_s(self, flow: "Flow", ewma_bps: float) -> float:
        age = self.network.now - flow.start_time
        if ewma_bps <= 0.0:
            return float("inf")
        return age + flow.remaining_bytes * 8.0 / ewma_bps

    def _age_fallback(self, flow_id: int) -> None:
        self._tracked.pop(flow_id, None)
        flow = self.network.flows.get(flow_id)
        if flow is None or flow.is_elephant:
            return
        self._promote(flow, early=False)

    def _promote(self, flow: "Flow", early: bool) -> None:
        network = self.network
        self._tracked.pop(flow.flow_id, None)
        if early:
            self._stat_early += 1
        else:
            self._stat_fallback += 1
        self._detection_age_sum_s += network.now - flow.start_time
        network._promote_elephant(flow.flow_id)

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Detector telemetry, merged into ``Network.perf_stats()``.

        ``det_mean_detection_age_s`` is the mean flow age at promotion
        across both paths — the headline the ablation benchmark gates on
        (threshold detection pins it at exactly ``elephant_age_s``).
        """
        promoted = self._stat_early + self._stat_fallback
        return {
            "det_predictive": 1.0,
            "det_flows_seen": float(self._stat_flows_seen),
            "det_samples": float(self._stat_samples),
            "det_early_promotions": float(self._stat_early),
            "det_fallback_promotions": float(self._stat_fallback),
            "det_mean_detection_age_s": (
                self._detection_age_sum_s / promoted if promoted else 0.0
            ),
        }
