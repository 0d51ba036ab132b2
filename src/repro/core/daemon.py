"""The per-host DARD daemon (paper §3.1).

Owns the host's monitors and runs Algorithm 1 (*selfish flow scheduling*)
over each of them: pick the monitored path with the largest BoNF and the
host's own active path with the smallest; if moving one elephant to the
former raises the bottleneck estimate by more than δ, re-encapsulate one
elephant flow onto the better path.

One scheduling round runs that step monitor by monitor, over each
monitor's raw state arrays with plain floats: the best target is the
first index of the lexicographic ``(BoNF, post-shift estimate)``
maximum, the worst active path the first active index of the BoNF
minimum, and the δ-test the scalar code's early return. FV is
assembled from each flow's path index, ``flow.components[0].index``,
which is the monitored path's index because a monitor lists its pair's
paths in the base order flows are placed in — no switch-path tuple is
built or hashed. The sweep over
:class:`~repro.core.bonf.PathState` objects with tuple-keyed FV lives on
as the scalar reference twin in :mod:`repro.validation.twins`, which
dual-runs scenarios against this round and demands the same shift
journal and bit-identical records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing.codec import PathCodec
from repro.common.logging import get_logger
from repro.scheduling.base import encode_and_verify
from repro.scheduling.messages import MessageLedger
from repro.simulator.flows import Flow
from repro.simulator.network import Network
from repro.core.monitor import PathMonitor
from repro.core.registry import MonitorRegistry

PairKey = Tuple[str, str]
ShiftRecord = Tuple[float, str, int, int, int]

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
        registry: MonitorRegistry,
        shift_log: List[ShiftRecord],
    ) -> None:
        self.host = host
        self.network = network
        self.codec = codec
        self.ledger = ledger
        self.delta_bps = delta_bps
        #: the fleet's per-pair intern table every monitor registers with.
        self.registry = registry
        #: shared ``(time, host, flow id, from index, to index)`` shift
        #: journal, appended in event order (the scheduler passes one list
        #: to every daemon so the fleet-wide sequence stays comparable
        #: with a reference twin's).
        self.shift_log = shift_log
        self.monitors: Dict[PairKey, PathMonitor] = {}
        #: live elephant flows of this host, grouped by (src ToR, dst ToR).
        self.elephants: Dict[PairKey, List[Flow]] = {}
        self.shifts_performed = 0

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
                self.network, src_tor, dst_tor, self.ledger, self.registry
            )
            self.monitors[pair] = monitor

    def on_flow_completed(self, flow: Flow) -> None:
        """Release monitors whose last elephant finished (paper §2.4.1)."""
        pair = self._pair_of(flow)
        flows = self.elephants.get(pair)
        if not flows:
            return
        self.elephants[pair] = [f for f in flows if f.flow_id != flow.flow_id]
        if not self.elephants[pair]:
            del self.elephants[pair]
            self.monitors.pop(pair, None)

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

    def run_scheduling_round(self) -> int:
        """One selfish round over all monitors; returns number of shifts."""
        shifts = 0
        for monitor in list(self.monitors.values()):
            if self._schedule_one_arrays(monitor):
                shifts += 1
        self.shifts_performed += shifts
        return shifts

    def _schedule_one_arrays(self, monitor: PathMonitor) -> bool:
        """One monitor's Algorithm 1 step over the raw state arrays (no
        PathState objects, integer FV).

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
                counts[flow.components[0].index] += 1
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
        self._shift(flow, monitor, best, worst)
        return True

    def _pick_flow_indexed(
        self, monitor: PathMonitor, path_index: int
    ) -> Optional[Flow]:
        """First active elephant on a path, by integer index comparison."""
        for flow in self.elephants.get((monitor.src_tor, monitor.dst_tor), []):
            if flow.active and flow.components[0].index == path_index:
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
        component = self.network.component(flow.src, flow.dst, monitor.paths, to_index)
        logger.debug(
            "t=%.2f host %s shifts flow %d to path %s",
            self.network.now, self.host, flow.flow_id, new_path,
        )
        self.network.reroute_flow(flow, [component])
        # Optimistically update local state so later decisions in this
        # round see the shift — both the landing and the vacated path (the
        # next query refreshes ground truth).
        monitor.note_shift(from_index, to_index)
        self.shift_log.append(
            (self.network.now, self.host, flow.flow_id, from_index, to_index)
        )
