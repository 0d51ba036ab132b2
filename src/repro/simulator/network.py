"""The live network: topology + flows + fair-share dynamics + events.

``Network`` owns all mutable simulation state. Schedulers interact with it
through four surfaces:

* **flow placement** — :meth:`start_flow` with the :meth:`component` s
  they chose;
* **re-routing** — :meth:`reroute_flow` (DARD's address-pair swap, VLB's
  periodic re-pick, Hedera's table update all reduce to this);
* **notifications** — the ``elephant_listeners`` /
  ``flow_completed_listeners`` hooks (and the cable failed / restored
  ones);
* **state queries** — :meth:`link_state`, the OpenFlow aggregate-statistics
  API DARD's monitors poll (bandwidth and elephant count per egress port).

Rate dynamics: after any membership change the weighted max-min allocation
is recomputed once (changes at the same instant are coalesced through a
zero-delay event) and the next completion event is rescheduled.

Performance architecture (see DESIGN.md): every directed link is interned
to a dense integer id by a :class:`~repro.simulator.linkindex.LinkIndex`
built once per network. Capacities, delays, failure state, elephant counters
and allocated loads live in numpy arrays indexed by link id; a flow
component carries its path's link-id row, which counter updates,
reallocation and reordering estimates reuse. The reallocator hands the
allocator each demand's row as a plain list, so the per-event hot path
never hashes a ``(str, str)`` link key. :meth:`perf_stats` exposes the
reallocation telemetry.

Bottleneck-region reallocation (see DESIGN.md "Incremental
bottleneck-region reallocation"): a rate change travels only through
saturated links, so each coalesced realloc re-water-fills only the
region a change can reach. The region starts with the flows whose
demands changed and the flows on each changed link that was saturated;
an exact link -> live-flows index
(:class:`~repro.simulator.components.FlowLinkComponents`) names every
other flow crossing the region's links — the boundary, replayed at its
stored rates and pinned at its stored levels (the persistent per-link
saturation shares). A boundary demand the fill contradicts joins the
region and the fill reruns. The splice writes the new rates, and the
loads and saturation shares the allocator returns for the covered
links, into the persistent arrays. A cable failure or restore puts the
flows crossing the cable in the region. Rates, loads, peak utilizations,
saturation shares, FCTs and the event sequence are bit-identical to a
global fill over every live demand, which
:func:`repro.validation.twins.full_refill_reference` keeps as a
reference twin (its fills are the ones ``perf_stats`` counts as
``realloc_full``, 0 in production); only the ``filling_iterations``
count differs (region fills count their own rounds and reruns).

Monitoring queries are vectorized the same way:
:meth:`batch_path_state_arrays` takes a ToR pair's dense ``(paths,
hops)`` link-id matrix and picks every path's bottleneck BoNF in one
pass over the dense capacity/elephant/failure arrays, replacing
per-link :meth:`link_state` loops; DARD's monitors poll it directly on
every query, with no cache in between.

Settings: a network builds its own :class:`EventEngine` (``network.engine``)
and takes two options, the elephant age and the detector kind. A path
switch costs :data:`~repro.simulator.flows.PATH_SWITCH_RETX_BYTES` of
retransmission unless ``reroute_flow`` waives the penalty.

The network holds no self-check. The invariant battery
(:meth:`repro.validation.invariants.InvariantChecker.run_checks`) audits
its state from outside: it recounts the elephant counters, loads and the
link -> flows index from node paths it expands itself, and reads the
private arrays and counters it audits directly.

Columnar flow state (see DESIGN.md "Columnar flow state"): hot per-flow
scalars live in a dense :class:`~repro.simulator.flowstore.FlowStore` —
SoA numpy columns whose rows ``[0, size)`` are exactly the live flows,
each :class:`Flow` the view of one row — so the three remaining
per-event loops are array expressions over those rows: ``_settle``
drains remaining bytes for every live flow at once,
``_schedule_next_completion`` takes a masked min over
``remaining * 8 / goodput``, and ``_on_completion_event`` finds
finishers with one boolean mask. The refill writes aggregate rates
straight into the store's rate column, one scalar write per re-rated
flow of its left-to-right ``sum(component_rates)``. The scalar per-flow
loops these passes replaced live on as reference twins in
:mod:`repro.validation.twins`, which swaps them into one network
through the ``run_scenario`` instrument seam and demands bit-identical
records (golden traces and fuzzer dual-runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.logging import get_logger
from repro.topology.multirooted import MultiRootedTopology
from repro.topology.paths import EqualCostPaths
from repro.simulator.components import FlowLinkComponents
from repro.simulator.engine import EventEngine, EventHandle
from repro.simulator.flows import (
    ELEPHANT_AGE_S,
    PATH_SWITCH_RETX_BYTES,
    Flow,
    FlowComponent,
    FlowRecord,
)
from repro.simulator.flowstore import FlowStore
from repro.simulator.linkindex import LinkIndex
from repro.simulator.maxmin import Allocation, LinkId, maxmin_allocate_indexed
from repro.simulator.reordering import reordering_retx_fraction_indexed

_BYTES_EPSILON = 1.0  # flows within one byte of done are done

#: What a fill with no live demand amounts to; the allocator is not called.
_NO_FILL = Allocation([], 0, [], [], [])

_INF = float("inf")

Listener = Callable[[Flow], None]

logger = get_logger("simulator.network")


@dataclass(frozen=True)
class LinkState:
    """What a switch reports for one egress port (paper §2.4).

    ``bonf`` is the link Bandwidth over the Number of elephant Flows;
    infinite when the link carries no elephants ("if a link has no flow,
    its BoNF is infinity", §2.2) and zero when the link is down — a dead
    link must look maximally congested, never attractive.
    """

    bandwidth_bps: float
    elephant_flows: int
    total_flows: int

    @property
    def bonf(self) -> float:
        if self.bandwidth_bps <= 0:
            return 0.0
        if self.elephant_flows == 0:
            return float("inf")
        return self.bandwidth_bps / self.elephant_flows


class Network:
    """Discrete-event fluid network simulation over a multi-rooted topology."""

    def __init__(
        self,
        topology: MultiRootedTopology,
        elephant_age_s: float = ELEPHANT_AGE_S,
        elephant_detector: str = "threshold",
    ) -> None:
        self.topology = topology
        self.engine = EventEngine()
        self.elephant_age_s = elephant_age_s
        #: pluggable elephant detection. ``"threshold"`` (default) is the
        #: paper's age timer, inline in :meth:`start_flow` — the exact
        #: historical event sequence. ``"predictive"`` installs the
        #: EWMA-over-first-RTTs classifier (see ``detectors`` module).
        if elephant_detector == "threshold":
            self.elephant_detector = None
        elif elephant_detector == "predictive":
            from repro.simulator.detectors import PredictiveElephantDetector

            self.elephant_detector = PredictiveElephantDetector(self)
        else:
            raise SimulationError(
                "elephant_detector must be 'threshold' or 'predictive', "
                f"got {elephant_detector!r}"
            )

        #: the per-network intern table; all per-link arrays align to it.
        self.link_index = LinkIndex.from_topology(topology)
        self._cap_array = self.link_index.capacities
        self._delay_array = self.link_index.delays
        num_links = len(self.link_index)
        self._eleph_array = np.zeros(num_links, dtype=np.int64)
        self._peak_util_array = np.zeros(num_links, dtype=float)
        self._failed_mask = np.zeros(num_links, dtype=bool)
        #: ids of the failed directed links: the refill's dead-demand test
        #: (``isdisjoint`` against a demand's link-id list).
        self._failed_ids: Set[int] = set()
        #: persistent per-link allocated load (bits/s). Each refill writes
        #: the loads of the links it covers (bit-exact, see
        #: maxmin_allocate_indexed) and zero on those no live demand crosses.
        #: A link's utilization is its load over its capacity, read where
        #: it is needed.
        self._load_array = np.zeros(num_links, dtype=float)
        #: persistent per-link saturation share: the level at which each
        #: link saturated in the fill that last covered it, ``inf`` if it
        #: did not. A pinned boundary demand's level is the minimum over
        #: its links. A list, since the refill reads it one link at a time.
        self._sat_levels: List[float] = [_INF] * num_links

        #: live flow-link incidence index.
        self._components = FlowLinkComponents()
        #: links whose flow set changed since the last fill and that
        #: still carry a flow, and the links left without one.
        self._changed_links: Set[int] = set()
        self._vacated_links: Set[int] = set()
        #: flows whose demands changed since the last fill: arrivals,
        #: reroutes, and flows under a failed or restored cable.
        self._changed_flows: Set[int] = set()

        # String-keyed copy of the capacities, for the baselines, the
        # reference allocator and the validation checks.
        self.capacities: Dict[LinkId, float] = dict(
            zip(self.link_index.links, self._cap_array.tolist())
        )

        self.flows: Dict[int, Flow] = {}
        #: columnar hot flow state: one row per flow in ``flows``, held
        #: from start to completion (see flowstore module docs).
        self.flow_store = FlowStore()
        self.records: List[FlowRecord] = []
        self._next_flow_id = 0
        self._last_settle = 0.0
        #: a coalesced zero-delay refill is queued: rates are stale until it
        #: runs, so the checks that need settled rates skip meanwhile.
        self._realloc_pending = False
        self._completion_handle: Optional[EventHandle] = None

        self.elephant_listeners: List[Listener] = []
        self.flow_completed_listeners: List[Listener] = []

        #: highest number of simultaneously live elephants seen (Fig. 15's
        #: "peak number of elephant flows" axis).
        self.peak_elephants = 0
        self._current_elephants = 0

        #: cables currently down (both directions); see :meth:`fail_link`.
        self.failed_links: set = set()
        self.link_failed_listeners: List[Callable[[str, str], None]] = []
        self.link_restored_listeners: List[Callable[[str, str], None]] = []

        #: extra ``perf_stats()`` key providers (the DARD control plane
        #: merges its ``cp_query_rounds`` through this seam).
        self.controlplane_stats_providers: List[Callable[[], Dict[str, float]]] = []

        # Reallocation / event telemetry (see perf_stats).
        self._stat_realloc_calls = 0
        self._stat_fill_iterations = 0
        self._stat_realloc_time_s = 0.0
        self._stat_flows_started = 0
        #: read with ``_stat_flows_started`` by the battery's flow-store
        #: balance check; not reported.
        self._stat_flows_completed = 0
        self._stat_reroutes = 0
        # Incremental-reallocation telemetry (see perf_stats).
        self._stat_realloc_incremental = 0
        self._stat_realloc_subset = 0
        self._stat_realloc_reruns = 0
        self._stat_flows_rerated = 0
        self._stat_flows_boundary = 0
        self._stat_flows_preserved = 0

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    # -- flow lifecycle -------------------------------------------------------

    def start_flow(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        components: Sequence[FlowComponent],
    ) -> Flow:
        """Begin a transfer using the scheduler-chosen path component(s)."""
        if size_bytes <= 0:
            raise SimulationError(f"flow size must be positive, got {size_bytes}")
        unique_link_ids = self._unique_link_ids(src, dst, components)
        self._settle()
        flow = Flow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            size_bytes=float(size_bytes),
            start_time=self.now,
            components=components,
            store=self.flow_store,
        )
        self._next_flow_id += 1
        flow.unique_link_ids = unique_link_ids
        flow.component_rates = [0.0] * len(flow.components)
        if len(flow.components) == 1:
            flow.path_history.append(flow.components[0].index)
        self.flows[flow.flow_id] = flow
        self._changed_links.update(self._components.attach(flow.flow_id, unique_link_ids))
        self._changed_flows.add(flow.flow_id)
        self._stat_flows_started += 1
        if self.elephant_detector is None:
            self.engine.schedule_in(
                self.elephant_age_s,
                lambda fid=flow.flow_id: self._promote_elephant(fid),
            )
        else:
            self.elephant_detector.on_flow_started(flow)
        self._request_realloc()
        return flow

    def reroute_flow(
        self,
        flow: Flow,
        components: Sequence[FlowComponent],
        count_switch: bool = True,
        retx_penalty: bool = True,
    ) -> None:
        """Replace a flow's path component(s).

        ``count_switch`` increments the paper's path-switch statistic;
        ``retx_penalty`` charges one congestion window of retransmission
        (disabled for control actions that are pure weight adjustments on
        unchanged paths, e.g. TeXCP rebalancing).
        """
        if not flow.active:
            raise SimulationError(f"cannot reroute finished flow {flow.flow_id}")
        unique_link_ids = self._unique_link_ids(flow.src, flow.dst, components)
        self._settle()
        self._adjust_link_counts(flow, -1)
        self._detach(flow)
        flow.components = list(components)
        flow.unique_link_ids = unique_link_ids
        flow.component_rates = [0.0] * len(flow.components)
        # Keep the store's rate column in lockstep with the zeroed list —
        # the scalar settle twin and the store pass must agree between
        # the reroute and the coalesced refill that re-rates the flow.
        self.flow_store.rate_bps[flow.store_row] = 0.0
        if len(flow.components) == 1:
            # Only a striped flow reorders; the refill refreshes those.
            flow.reorder_retx_fraction = 0.0
        self._adjust_link_counts(flow, +1)
        self._changed_links.update(self._components.attach(flow.flow_id, unique_link_ids))
        self._changed_flows.add(flow.flow_id)
        self._stat_reroutes += 1
        if count_switch:
            flow.path_switches += 1
            if len(flow.components) == 1:
                flow.path_history.append(flow.components[0].index)
        if retx_penalty:
            penalty = min(PATH_SWITCH_RETX_BYTES, flow.remaining_bytes)
            flow.retransmitted_bytes += penalty
            flow.remaining_bytes += penalty
        self._request_realloc()

    def component(
        self, src: str, dst: str, paths: EqualCostPaths, index: int, weight: float = 1.0
    ) -> FlowComponent:
        """The component riding ``paths[index]``, the hosts' ToR pair's
        path set, from host ``src`` to ``dst``: its row is the access
        links around the hops read from the cable-id tables, no node path."""
        if not 0 <= index < len(paths):
            raise IndexError(f"path index {index} out of range for {len(paths)} paths")
        link_index, tables = self.link_index, self.topology.path_tables()
        id_of, cable_ids = link_index.id_of, link_index.cable_ids
        row = [id_of((src, paths.src_tor))]
        row += paths.hop_row(index, cable_ids(tables.tor), cable_ids(tables.agg))
        row.append(id_of((paths.dst_tor, dst)))
        return FlowComponent(index, row, weight)

    def active_flows(self) -> List[Flow]:
        """All currently live flows."""
        return list(self.flows.values())

    def active_elephants(self) -> List[Flow]:
        """Live flows already promoted to elephant status."""
        return [f for f in self.flows.values() if f.is_elephant]

    # -- failure injection -------------------------------------------------------

    def link_is_up(self, u: str, v: str) -> bool:
        """Whether the directed link ``u -> v`` is currently usable."""
        if (u, v) not in self.capacities:
            raise SimulationError(f"no such directed link {(u, v)}")
        return (u, v) not in self.failed_links

    def path_alive(self, path: Sequence[str]) -> bool:
        """Whether every hop of a node path is up."""
        return all(self.link_is_up(a, b) for a, b in zip(path, path[1:]))

    def fail_link(self, u: str, v: str) -> None:
        """Take the cable between ``u`` and ``v`` down (both directions).

        Flows whose every component crosses the dead cable stall at zero
        rate until some scheduler moves them — exactly what a silent
        physical failure does to traffic pinned by static tables.
        """
        for key in ((u, v), (v, u)):
            if key not in self.capacities:
                raise SimulationError(f"no such directed link {key}")
        if (u, v) in self.failed_links:
            return
        self._settle()
        logger.info("t=%.2f link %s <-> %s failed", self.now, u, v)
        self.failed_links.add((u, v))
        self.failed_links.add((v, u))
        ids = (self.link_index.id_of((u, v)), self.link_index.id_of((v, u)))
        self._failed_mask[list(ids)] = True
        self._failed_ids.update(ids)
        self._reallocate_cable(ids)
        for listener in self.link_failed_listeners:
            listener(u, v)

    def restore_link(self, u: str, v: str) -> None:
        """Bring a failed cable back into service."""
        if (u, v) not in self.failed_links:
            return
        self._settle()
        logger.info("t=%.2f link %s <-> %s restored", self.now, u, v)
        self.failed_links.discard((u, v))
        self.failed_links.discard((v, u))
        ids = (self.link_index.id_of((u, v)), self.link_index.id_of((v, u)))
        self._failed_mask[list(ids)] = False
        self._failed_ids.difference_update(ids)
        self._reallocate_cable(ids)
        for listener in self.link_restored_listeners:
            listener(u, v)

    def _reallocate_cable(self, ids: Tuple[int, int]) -> None:
        """Re-fill synchronously after the cable with these link ids changed.

        A dead cable must carry nothing from this instant, not from the
        next event-loop turn. The transition changes only which demands
        of the flows crossing the cable are dead, so those flows join the
        region of the refill, which covers every link they cross.
        """
        self._touch(ids)
        self._reallocate()

    def _detach(self, flow: Flow) -> None:
        """Take a flow off the index and mark the links it left."""
        shared, vacated = self._components.detach(flow.flow_id)
        self._changed_links.update(shared)
        self._vacated_links.update(vacated)

    def _touch(self, link_ids: Sequence[int]) -> None:
        """These links changed under their flows (a cable failed, came
        back, or changed capacity): the flows crossing them join the next
        refill's region."""
        self._changed_flows.update(self._components.flows_on(link_ids))

    # -- switch state query API (what DARD monitors poll) ----------------------

    def link_state(self, u: str, v: str) -> LinkState:
        """State of the directed link (egress port) ``u -> v``.

        A failed link reports zero bandwidth, which monitors fold into a
        zero BoNF — failure detection needs no extra machinery beyond the
        state DARD already polls.
        """
        index = self.link_index.ids.get((u, v))
        if index is None:
            raise SimulationError(f"no such directed link {(u, v)}")
        bandwidth = 0.0 if self._failed_mask[index] else float(self._cap_array[index])
        return LinkState(
            bandwidth_bps=bandwidth,
            elephant_flows=int(self._eleph_array[index]),
            total_flows=self._components.flow_count(index),
        )

    def batch_path_state_arrays(self, hops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-path bottleneck ``(bandwidth, elephant count)`` arrays.

        ``hops`` is a ``(paths, hops)`` link-id matrix: row ``k`` lists
        path ``k``'s switch-switch links (a ToR pair's
        :meth:`~repro.topology.paths.EqualCostPaths.hop_links`; the host
        access hops are left out, since a flow cannot route around them
        and DARD excludes them from BoNF, §2.2). Row ``k``'s bottleneck is
        its *first* minimum-BoNF link — ``np.argmin``'s pick, as a
        sequential ``min()`` over the row's :meth:`link_state` values
        makes it; the two returned arrays (float64 bandwidth, int64
        elephant count) are that link's :meth:`link_state` values, without
        building any :class:`LinkState` object. Both arrays are fresh on
        every call.
        """
        if hops.shape[1] == 0:
            raise SimulationError("path-state rows must be non-empty")
        band = np.where(self._failed_mask[hops], 0.0, self._cap_array[hops])
        eleph = self._eleph_array[hops]
        # LinkState.bonf, vectorized: 0 when down, inf when elephant-free.
        bonf = np.where(
            band <= 0.0,
            0.0,
            np.where(eleph > 0, band / np.maximum(eleph, 1), np.inf),
        )
        rows = np.arange(hops.shape[0])
        first = np.argmin(bonf, axis=1)
        return band[rows, first], eleph[rows, first]

    def utilization(self, u: str, v: str) -> float:
        """Most recent allocated utilization of the directed link ``u -> v``."""
        index = self.link_index.ids.get((u, v))
        if index is None:
            return 0.0
        return float(self._load_array[index] / self._cap_array[index])

    # -- telemetry ---------------------------------------------------------------

    def perf_stats(self) -> Dict[str, float]:
        """Reallocation and event telemetry for this network's lifetime.

        Every key has a reader outside the tests: perfbench's traced run
        (layers and seam cross-checks), ``bench_perf_realloc``, the
        golden digest and ``bench_ext_scenarios``. Keys on every network:

        * ``realloc_calls`` — refills run (coalesced same-instant
          requests run once; a cable failure or restore runs one at once);
        * ``filling_iterations`` — total progressive-filling rounds, reruns
          included;
        * ``realloc_time_s`` — wall time spent inside reallocation;
        * ``flows_started`` / ``reroutes`` — event counts, cross-checked
          against perfbench's wrapped seams;
        * ``realloc_incremental`` — region refills; ``realloc_full`` —
          every other fill, i.e. ``realloc_calls`` minus the region
          refills. Only the reference twin
          (:func:`repro.validation.twins.full_refill_reference`) fills
          globally, so ``realloc_full`` reads 0 in production;
        * ``realloc_subset`` — region refills that re-rated fewer flows
          than were live (the locality win);
        * ``realloc_reruns`` — region fills rerun because a boundary
          demand was contradicted or could not be replayed;
        * ``flows_rerated`` / ``flows_preserved`` — region flows
          re-water-filled vs flows whose rates were left as they were,
          summed over region refills;
        * ``flows_boundary`` — boundary flows whose demands the accepted
          fill pinned at their stored levels, summed over region refills.

        The predictive detector adds ``det_early_promotions``,
        ``det_fallback_promotions`` and ``det_mean_detection_age_s``, and
        the DARD scheduler adds ``cp_query_rounds`` through
        ``controlplane_stats_providers``.
        """
        stats: Dict[str, float] = {
            "realloc_calls": self._stat_realloc_calls,
            "filling_iterations": self._stat_fill_iterations,
            "realloc_time_s": self._stat_realloc_time_s,
            "flows_started": self._stat_flows_started,
            "reroutes": self._stat_reroutes,
            "realloc_full": self._stat_realloc_calls - self._stat_realloc_incremental,
            "realloc_incremental": self._stat_realloc_incremental,
            "realloc_subset": self._stat_realloc_subset,
            "realloc_reruns": self._stat_realloc_reruns,
            "flows_rerated": self._stat_flows_rerated,
            "flows_boundary": self._stat_flows_boundary,
            "flows_preserved": self._stat_flows_preserved,
        }
        if self.elephant_detector is not None:
            stats.update(self.elephant_detector.stats())
        for provider in self.controlplane_stats_providers:
            stats.update(provider())
        return stats

    # -- internals --------------------------------------------------------------

    def _unique_link_ids(
        self, src: str, dst: str, components: Sequence[FlowComponent]
    ) -> List[int]:
        """The sorted unique link ids of a flow's components, cached at
        start/reroute. A component whose row does not run from ``src``'s
        access link to ``dst``'s is refused here, before any state changes."""
        if not components:
            raise SimulationError(f"flow {src} -> {dst} has no components")
        ids, tor_of = self.link_index.ids, self.topology.tor_of
        first, last = ids.get((src, tor_of(src))), ids.get((tor_of(dst), dst))
        rows = [component.link_ids for component in components]
        if any(row[0] != first or row[-1] != last for row in rows):
            raise SimulationError(f"a component does not run from {src!r} to {dst!r}")
        return sorted(set(rows[0]).union(*rows[1:]))

    def _adjust_link_counts(self, flow: Flow, delta: int) -> None:
        """Add ``delta`` elephants to an elephant's links (mice count none)."""
        if flow.is_elephant:
            self._eleph_array[flow.unique_link_ids] += delta

    def _promote_elephant(self, flow_id: int) -> None:
        flow = self.flows.get(flow_id)
        if flow is None or flow.is_elephant:
            return
        flow.is_elephant = True
        self._adjust_link_counts(flow, +1)
        self._current_elephants += 1
        self.peak_elephants = max(self.peak_elephants, self._current_elephants)
        for listener in self.elephant_listeners:
            listener(flow)

    def _settle(self) -> None:
        """Advance byte counters from the last settle point to now."""
        dt = self.now - self._last_settle
        if dt < 0:
            raise SimulationError("time went backwards")
        if dt > 0 and self.flows:
            self._settle_store(dt)
        self._last_settle = self.now

    def _settle_store(self, dt: float) -> None:
        """Vectorized settle over the flow-store columns.

        Bit-identical to the scalar per-flow loop in
        :mod:`repro.validation.twins`: the mask replicates the scalar
        ``delivered_bits <= 0`` skip, the per-row op sequence is the same
        float64 expression tree, and the rate column is kept bit-equal to
        ``sum(component_rates)`` by the refill.
        """
        store = self.flow_store
        n = store.size
        bits = store.rate_bps[:n] * dt
        rows = np.flatnonzero(bits > 0.0)
        if rows.size == 0:
            return
        delivered_bytes = bits[rows] / 8.0
        wasted = delivered_bytes * store.retx_fraction[rows]
        remaining = store.remaining_bytes
        remaining[rows] = np.maximum(0.0, remaining[rows] - (delivered_bytes - wasted))
        store.retransmitted_bytes[rows] += wasted

    def _request_realloc(self) -> None:
        if not self._realloc_pending:
            self._realloc_pending = True
            self.engine.schedule_in(0.0, self._reallocate)

    def _reallocate(self) -> None:
        self._realloc_pending = False
        self._settle()
        # perf_counter feeds perf_stats() telemetry only, never sim state.
        started = perf_counter()  # dardlint: disable=DET002
        self._refill_dirty()
        self._stat_realloc_calls += 1
        self._stat_realloc_time_s += perf_counter() - started  # dardlint: disable=DET002
        self._schedule_next_completion()

    def _write_rates(
        self,
        flows: Sequence[Flow],
        owners: Sequence[Tuple[Flow, int]],
        rates: Sequence[float],
        levels: Optional[Sequence[float]] = None,
    ) -> None:
        """Give every re-rated flow its fill's rates, list and store row.

        Each flow in ``flows`` gets a fresh ``component_rates`` list (dead
        components stay 0.0), and its store row one scalar write of that
        list's left-to-right sum: the rate column's bit-exact contract.
        With ``levels``, only the free demands' rates are written; a pinned
        boundary demand keeps the rate it has.
        """
        for flow in flows:
            flow.component_rates = [0.0] * len(flow.components)
        if levels is None:
            for (flow, idx), rate in zip(owners, rates):
                flow.component_rates[idx] = rate
        else:
            for (flow, idx), rate, level in zip(owners, rates, levels):
                if level == _INF:
                    flow.component_rates[idx] = rate
        rate_col = self.flow_store.rate_bps
        for flow in flows:
            total = 0.0
            for rate in flow.component_rates:
                total += rate
            rate_col[flow.store_row] = total

    def _refresh_reordering(self, flow: Flow) -> None:
        """Recompute a striped flow's reordering fraction after a splice."""
        flow.reorder_retx_fraction = reordering_retx_fraction_indexed(
            flow.component_rates,
            [component.link_ids for component in flow.components],
            self._delay_array,
            self._load_array,
            self._cap_array,
        )

    def _assemble_region(
        self, flow_ids: Sequence[int], boundary: Set[int], fill_links: Set[int]
    ) -> Tuple[
        List[Sequence[int]],
        List[float],
        Optional[List[float]],
        List[int],
        List[Tuple[Flow, int]],
        Set[int],
    ]:
        """The rows of a bottleneck-region fill over ``flow_ids`` (ascending).

        A region flow's live demands come whole and free (level ``inf``).
        A boundary flow's live demands that cross the fill come cut to the
        fill's links and pinned: each one's level is the least saturation
        share over all its links, and it is anchored when a link outside
        the fill holds that share. Returns ``(rows, weights, levels,
        anchored, owners, late)``; ``levels`` is ``None`` when nothing is
        pinned, and ``late`` holds the boundary flows with a demand whose
        rate is not its weight times its level, which the stored state
        cannot replay.
        """
        rows: List[Sequence[int]] = []
        weights: List[float] = []
        levels: List[float] = []
        anchored: List[int] = []
        owners: List[Tuple[Flow, int]] = []
        late: Set[int] = set()
        pinned = False
        failed = self._failed_ids
        sat = self._sat_levels
        flows = self.flows
        for flow_id in flow_ids:
            flow = flows[flow_id]
            free = flow_id not in boundary
            for idx, component in enumerate(flow.components):
                ids: Sequence[int] = component.link_ids
                if failed and not failed.isdisjoint(ids):
                    continue  # dead component: carries nothing until rerouted
                level = _INF
                if not free:
                    inside = []
                    outside = _INF
                    for link in ids:
                        share = sat[link]
                        if link in fill_links:
                            inside.append(link)
                            if share < level:
                                level = share
                        elif share < outside:
                            outside = share
                    if not inside:
                        continue
                    if outside <= level:
                        level = outside
                        anchored.append(len(rows))
                    if flow.component_rates[idx] != component.weight * level:
                        late.add(flow_id)
                    ids = inside
                    pinned = True
                rows.append(ids)
                weights.append(component.weight)
                levels.append(level)
                owners.append((flow, idx))
        return rows, weights, levels if pinned else None, anchored, owners, late

    def _refill_dirty(self) -> None:
        """Re-fill the bottleneck region the changes since the last fill reach.

        The region starts with the flows whose demands changed and the
        flows on each changed link that was saturated. The fill covers
        every link a region flow crosses and every changed link, and each
        other flow crossing one of those links is the boundary: its
        demands are pinned at their stored levels (see
        :meth:`_assemble_region` and :func:`maxmin_allocate_indexed`). A
        rate change travels only through saturated links, so unless a
        pinned demand is contradicted the fill reproduces a global fill's
        rates, loads and saturation shares on the links it covers, read
        against ``_cap_array`` on every fill. A contradicted demand's flow
        joins the region and the fill reruns; so does a boundary flow the
        stored state cannot replay. The splice writes the region's rates,
        the covered links' loads, peak utilizations and saturation
        shares (zero load and ``inf`` where no live demand is left), and
        refreshes the reordering fractions of the flows whose links it
        touched. Everything else keeps its state bit for bit.
        """
        index = self._components
        flows = self.flows
        sat = self._sat_levels
        changed_links, self._changed_links = self._changed_links, set()
        region, self._changed_flows = self._changed_flows, set()
        region |= index.flows_on([link for link in changed_links if sat[link] != _INF])
        fill, levels, owners = _NO_FILL, None, []
        iterations = 0
        while True:
            fill_links = index.links_of(region)
            fill_links |= changed_links
            boundary = index.flows_on(fill_links)
            boundary -= region
            if not region and not boundary:
                break  # nothing left to fill
            rows, weights, levels, anchored, owners, late = self._assemble_region(
                sorted(region | boundary), boundary, fill_links
            )
            if late:
                region |= late
            else:
                fill = (
                    maxmin_allocate_indexed(rows, weights, self._cap_array, levels, anchored)
                    if rows
                    else _NO_FILL
                )
                iterations += fill.iterations
                if not fill.contradicted:
                    break
                region.update(owners[j][0].flow_id for j in fill.contradicted)
            self._stat_realloc_reruns += 1
        # Links a departure left without a flow are covered too: they
        # read zero load from here on, with no lookup of their flows.
        fill_links |= self._vacated_links
        self._vacated_links = set()
        region_flows = [flows[flow_id] for flow_id in sorted(region)]
        if region_flows:
            self._write_rates(region_flows, owners, fill.rates, levels)
        load = self._load_array
        links = fill.links
        if len(links) < len(fill_links):
            # Covered links that no live demand crosses any more.
            for link in fill_links.difference(links):
                load[link] = 0.0
                sat[link] = _INF
        if links:
            ids = np.array(links, dtype=np.intp)
            load[ids] = fill.loads
            fresh = load[ids] / self._cap_array[ids]
            peak = self._peak_util_array
            peak[ids] = np.maximum(peak[ids], fresh)
            for link, share in zip(links, fill.saturation):
                sat[link] = share
        # A striped flow's reordering fraction reads its links' loads;
        # a single-path flow's is 0 (see reroute_flow).
        for flow in region_flows:
            if len(flow.components) > 1:
                self._refresh_reordering(flow)
        for flow_id in boundary:
            flow = flows[flow_id]
            if len(flow.components) > 1:
                self._refresh_reordering(flow)
        self._stat_fill_iterations += iterations
        self._stat_realloc_incremental += 1
        if len(region) < len(flows):
            self._stat_realloc_subset += 1
        self._stat_flows_rerated += len(region)
        self._stat_flows_boundary += len(boundary)
        self._stat_flows_preserved += len(flows) - len(region)

    def _schedule_next_completion(self) -> None:
        """Replace the pending completion event with one at the next ETA.

        The old event is always cancelled and a new one pushed, even when
        the fire time did not move: cancelling draws no sequence number,
        so same-time event order cannot depend on how often the
        recomputed time coincides with the old one.
        """
        if self._completion_handle is not None:
            self._completion_handle.cancel()
            self._completion_handle = None
        soonest = self._next_completion_eta_store()
        if soonest < float("inf"):
            self._completion_handle = self.engine.schedule_in(
                max(soonest, 0.0), self._on_completion_event
            )

    def _next_completion_eta_store(self) -> float:
        """Masked min over ``remaining * 8 / goodput`` across the store.

        ``rate * (1.0 - retx_fraction)`` is, row for row, the same float64
        expression as the scalar ``rate_bps * (1.0 -
        reorder_retx_fraction)``, and the array min equals the sequential
        ``min()`` reduction.
        """
        store = self.flow_store
        n = store.size
        goodput = store.rate_bps[:n] * (1.0 - store.retx_fraction[:n])
        rows = np.flatnonzero(goodput > 0.0)
        if rows.size == 0:
            return float("inf")
        etas = (store.remaining_bytes[rows] * 8.0) / goodput[rows]
        return float(etas.min())

    def _find_finishers_store(self) -> List[Flow]:
        """Boolean-mask finisher scan over the store's remaining column.

        Finishers come back sorted by flow id — identical to the scalar
        dict scan, since flow ids are assigned monotonically and flows are
        never reinserted, so dict order *is* ascending flow-id order.
        """
        store = self.flow_store
        rows = np.flatnonzero(store.remaining_bytes[: store.size] <= _BYTES_EPSILON)
        if rows.size == 0:
            return []
        flows = self.flows
        return [flows[int(fid)] for fid in np.sort(store.flow_id[rows])]

    def _on_completion_event(self) -> None:
        self._completion_handle = None
        self._settle()
        finished = self._find_finishers_store()
        if not finished:
            # Rates changed under us; just reschedule.
            self._schedule_next_completion()
            return
        for flow in finished:
            flow.end_time = self.now
            self._adjust_link_counts(flow, -1)
            self._detach(flow)
            self._changed_flows.discard(flow.flow_id)
            if flow.is_elephant:
                self._current_elephants -= 1
            del self.flows[flow.flow_id]
            self._stat_flows_completed += 1
            self.records.append(
                FlowRecord(
                    flow_id=flow.flow_id,
                    src=flow.src,
                    dst=flow.dst,
                    size_bytes=flow.size_bytes,
                    start_time=flow.start_time,
                    end_time=flow.end_time,
                    path_switches=flow.path_switches,
                    path_revisits=flow.path_revisits(),
                    retransmitted_bytes=flow.retransmitted_bytes,
                    was_elephant=flow.is_elephant,
                )
            )
            for listener in self.flow_completed_listeners:
                listener(flow)
            self.flow_store.release(flow.store_row)
        self._request_realloc()
