"""The per-host DARD daemon (paper §3.1).

Owns the host's monitors and runs Algorithm 1 (*selfish flow scheduling*)
over each of them: pick the monitored path with the largest BoNF and the
host's own active path with the smallest; if moving one elephant to the
former raises the bottleneck estimate by more than δ, re-encapsulate one
elephant flow onto the better path.

One scheduling round evaluates every monitor at once over a padded
(monitors × paths) BoNF matrix. The best target becomes a masked argmax
(ties toward the higher post-shift estimate, then the lower index), the
worst active path an argmin over active paths (first-minimum ties), and
the δ-test a boolean mask; only monitors whose test fires take the
per-shift tail (pick the flow, reroute it, apply the optimistic
within-round update). FV is assembled from each flow's integer
``monitored_path_index`` — no switch-path tuple hashing.

The matrix is a *snapshot* of the monitors' cached states, which is
exactly what the sequential per-monitor loop sees too: monitors are
disjoint per (src ToR, dst ToR) pair, each monitor makes at most one
decision per round, and a shift only touches its own monitor's state and
its own pair's FV — so evaluating all decisions up front is
order-equivalent to the sequential sweep. That sweep, over
:class:`~repro.core.bonf.PathState` objects with tuple-keyed FV, lives on
as the scalar reference twin in :mod:`repro.validation.twins`, which
dual-runs scenarios against this round and demands the same shift
journal and bit-identical records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.addressing.codec import PathCodec
from repro.common.logging import get_logger
from repro.scheduling.base import encode_and_verify
from repro.scheduling.messages import MessageLedger, MessageSizes
from repro.simulator.flows import Flow, FlowComponent
from repro.simulator.network import Network
from repro.core.monitor import PathMonitor
from repro.core.registry import MonitorRegistry

PairKey = Tuple[str, str]
ShiftRecord = Tuple[float, str, int, int, int]

#: Below this many (monitors x paths) matrix cells the vectorized round
#: runs its plain-float small-fleet path instead — numpy's fixed per-op
#: cost only amortizes once the padded matrix is reasonably large.
_SMALL_ROUND_CELLS = 128

logger = get_logger("core.daemon")


class HostDaemon:
    """Detector + monitors + selfish scheduler for one end host."""

    def __init__(
        self,
        host: str,
        network: Network,
        codec: PathCodec,
        ledger: MessageLedger,
        delta_bps: float,
        message_sizes: MessageSizes = MessageSizes(),
        registry: Optional[MonitorRegistry] = None,
        shift_log: Optional[List[ShiftRecord]] = None,
    ) -> None:
        self.host = host
        self.network = network
        self.codec = codec
        self.ledger = ledger
        self.delta_bps = delta_bps
        self.message_sizes = message_sizes
        self.registry = registry
        #: shared ``(time, host, flow id, from index, to index)`` shift
        #: journal, appended in event order (the scheduler passes one list
        #: to every daemon so the fleet-wide sequence stays comparable
        #: with a reference twin's). ``None`` disables journaling.
        self.shift_log = shift_log
        self.monitors: Dict[PairKey, PathMonitor] = {}
        #: live elephant flows of this host, grouped by (src ToR, dst ToR).
        self.elephants: Dict[PairKey, List[Flow]] = {}
        self.shifts_performed = 0
        #: telemetry: matrix rounds run and per-shift tails taken.
        self.vector_rounds = 0
        self.shift_tails = 0

    # -- detector callbacks ------------------------------------------------------

    def on_elephant(self, flow: Flow) -> None:
        """A local TCP connection crossed the 10 s elephant threshold."""
        pair = self._pair_of(flow)
        src_tor, dst_tor = pair
        if src_tor == dst_tor:
            return  # single trivial path; nothing to monitor or schedule
        self.elephants.setdefault(pair, []).append(flow)
        monitor = self.monitors.get(pair)
        if monitor is None:
            monitor = PathMonitor(
                self.network, src_tor, dst_tor, self.ledger,
                self.message_sizes, registry=self.registry,
            )
            self.monitors[pair] = monitor
        # Integer FV fast path: remember which monitored path the flow is
        # on now, so per-round accounting never re-hashes path tuples.
        flow.monitored_path_index = monitor.path_index(
            tuple(flow.switch_path()[1:-1])
        )

    def on_flow_completed(self, flow: Flow) -> None:
        """Release monitors whose last elephant finished (paper §2.4.1)."""
        pair = self._pair_of(flow)
        flows = self.elephants.get(pair)
        if not flows:
            return
        self.elephants[pair] = [f for f in flows if f.flow_id != flow.flow_id]
        if not self.elephants[pair]:
            del self.elephants[pair]
            monitor = self.monitors.pop(pair, None)
            if monitor is not None:
                monitor.release()

    def _pair_of(self, flow: Flow) -> PairKey:
        topo = self.network.topology
        return (topo.tor_of(flow.src), topo.tor_of(flow.dst))

    # -- monitoring ---------------------------------------------------------------

    def query_monitors(self) -> None:
        """Periodic switch-state polling for every live monitor.

        Refreshes each monitor's raw state arrays; no :class:`PathState`
        objects are built.
        """
        for monitor in self.monitors.values():
            monitor.refresh()

    # -- Algorithm 1: selfish flow scheduling ----------------------------------------

    def _fill_flow_counts(self, monitor: PathMonitor, out: np.ndarray) -> None:
        """FV via the integer fast path, accumulated into ``out``."""
        for flow in self.elephants.get((monitor.src_tor, monitor.dst_tor), []):
            if flow.active:
                out[flow.monitored_path_index] += 1

    def run_scheduling_round(self) -> int:
        """One selfish round over all monitors; returns number of shifts.

        Algorithm 1 as one padded-matrix evaluation. Tie-breaking is
        proven identical to the scalar reference loop:

        * the best target is the *first* index of the lexicographic
          maximum ``(bonf, post-shift estimate)`` — here: mask the row
          maximum of ``bonf``, take the estimate maximum within the mask,
          and ``argmax`` (first True) of the conjunction;
        * the worst active path is the *first* active index of the minimum
          ``bonf`` — here: ``argmin`` (first minimum) over ``bonf`` with
          inactive paths lifted to +inf, falling back to the first active
          index when every active path's bonf is infinite (argmin could
          otherwise land on an inactive path);
        * padding columns get ``bonf 0, estimate -1``, strictly below any
          real path's ``(bonf >= 0, estimate >= 0)``, and ``FV 0`` (never
          active), so they are never selected.
        """
        monitors = list(self.monitors.values())
        self.vector_rounds += 1
        if not monitors:
            return 0
        num_monitors = len(monitors)
        width = max(len(monitor.paths) for monitor in monitors)
        if num_monitors * width <= _SMALL_ROUND_CELLS:
            # Tiny fleets (the common case: a host rarely talks to more
            # than a couple of ToR pairs) are cheaper without the padded
            # matrix — same decision procedure, plain floats.
            shifts = 0
            for monitor in monitors:
                if self._schedule_one_arrays(monitor):
                    shifts += 1
            self.shifts_performed += shifts
            return shifts
        band = np.full((num_monitors, width), -1.0)
        eleph = np.zeros((num_monitors, width), dtype=np.int64)
        flow_counts = np.zeros((num_monitors, width), dtype=np.int64)
        for i, monitor in enumerate(monitors):
            k = monitor.state_band.size
            band[i, :k] = monitor.state_band
            eleph[i, :k] = monitor.state_eleph
            self._fill_flow_counts(monitor, flow_counts[i])
        # PathState.bonf / bonf_with_one_more_flow(), vectorized with the
        # same guarded idiom (and IEEE float64 ops) as the scalar code.
        bonf = np.where(
            band <= 0.0,
            0.0,
            np.where(eleph > 0, band / np.maximum(eleph, 1), np.inf),
        )
        estimate = np.where(band <= 0.0, 0.0, band / (eleph + 1.0))
        estimate = np.where(band < 0.0, -1.0, estimate)
        rows = np.arange(num_monitors)
        # Best target: first index of the lexicographic (bonf, est) max.
        is_row_max = bonf == bonf.max(axis=1)[:, None]
        est_masked = np.where(is_row_max, estimate, -np.inf)
        best = np.argmax(
            is_row_max & (est_masked == est_masked.max(axis=1)[:, None]), axis=1
        )
        # Worst active path: first active index of the min bonf.
        active = flow_counts > 0
        keyed = np.where(active, bonf, np.inf)
        worst = np.argmin(keyed, axis=1)
        has_active = active.any(axis=1)
        all_inf = np.isinf(keyed[rows, worst])
        worst = np.where(all_inf, np.argmax(active, axis=1), worst)
        # The δ-test, spelled as the scalar code's negated early-return so
        # even degenerate float corners (inf - inf) behave identically.
        with np.errstate(invalid="ignore"):
            gain = estimate[rows, best] - bonf[rows, worst]
            fires = has_active & (best != worst) & ~(gain <= self.delta_bps)
        shifts = 0
        for i in np.flatnonzero(fires):
            monitor = monitors[i]
            flow = self._pick_flow_indexed(monitor, int(worst[i]))
            if flow is None:
                continue
            self.shift_tails += 1
            self._shift(flow, monitor, int(best[i]), int(worst[i]))
            shifts += 1
        self.shifts_performed += shifts
        return shifts

    def _schedule_one_arrays(self, monitor: PathMonitor) -> bool:
        """One monitor's Algorithm 1 step over the raw state arrays (no
        PathState objects, integer FV) — the round's small-fleet path.

        One pass computes each path's ``(bonf, post-shift estimate)`` with
        the exact guarded idiom of :class:`PathState` (same IEEE float64
        divisions — ``tolist`` yields doubles) while tracking the
        lexicographic-max target (strict-greater keeps the first tie, like
        the scalar reference's best target) and the min-BoNF active path
        (strict-less keeps the first, like its worst active path).
        """
        band = monitor.state_band.tolist()
        eleph = monitor.state_eleph.tolist()
        counts = [0] * len(band)
        for flow in self.elephants.get((monitor.src_tor, monitor.dst_tor), []):
            if flow.active:
                counts[flow.monitored_path_index] += 1
        best = worst = None
        best_bonf = best_est = worst_bonf = 0.0
        inf = float("inf")
        for i, b in enumerate(band):
            e = eleph[i]
            if b <= 0.0:
                bonf = est = 0.0
            elif e > 0:
                bonf = b / e
                est = b / (e + 1.0)
            else:
                bonf = inf
                est = b
            if best is None or bonf > best_bonf or (
                bonf == best_bonf and est > best_est
            ):
                best, best_bonf, best_est = i, bonf, est
            if counts[i] > 0 and (worst is None or bonf < worst_bonf):
                worst, worst_bonf = i, bonf
        if best is None or worst is None or best == worst:
            return False
        if best_est - worst_bonf <= self.delta_bps:
            return False
        flow = self._pick_flow_indexed(monitor, worst)
        if flow is None:
            return False
        self.shift_tails += 1
        self._shift(flow, monitor, best, worst)
        return True

    def _pick_flow_indexed(
        self, monitor: PathMonitor, path_index: int
    ) -> Optional[Flow]:
        """First active elephant on a path, by integer index comparison."""
        for flow in self.elephants.get((monitor.src_tor, monitor.dst_tor), []):
            if flow.active and flow.monitored_path_index == path_index:
                return flow
        return None

    def _shift(
        self, flow: Flow, monitor: PathMonitor, to_index: int, from_index: int
    ) -> None:
        """Re-encapsulate ``flow`` onto a new path via its address pair."""
        new_path = monitor.paths[to_index]
        # The route change is expressed purely as an address-pair swap; the
        # codec round-trip asserts the static tables will honor it.
        encode_and_verify(self.codec, flow.src, flow.dst, new_path)
        component = FlowComponent(
            self.network.topology.host_path(flow.src, flow.dst, new_path)
        )
        logger.debug(
            "t=%.2f host %s shifts flow %d to path %s",
            self.network.now, self.host, flow.flow_id, new_path,
        )
        self.network.reroute_flow(flow, [component])
        flow.monitored_path_index = to_index
        # Optimistically update local state so later decisions in this
        # round see the shift — both the landing and the vacated path (the
        # next query refreshes ground truth).
        monitor.note_shift(from_index, to_index)
        if self.shift_log is not None:
            self.shift_log.append(
                (self.network.now, self.host, flow.flow_id, from_index, to_index)
            )
