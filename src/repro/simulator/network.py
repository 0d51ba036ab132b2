"""The live network: topology + flows + fair-share dynamics + events.

``Network`` owns all mutable simulation state. Schedulers interact with it
through four surfaces:

* **flow placement** — :meth:`start_flow` with the components they chose;
* **re-routing** — :meth:`reroute_flow` (DARD's address-pair swap, VLB's
  periodic re-pick, Hedera's table update all reduce to this);
* **notifications** — ``on_flow_started`` / ``on_elephant_promoted`` /
  ``on_flow_completed`` listener hooks;
* **state queries** — :meth:`link_state`, the OpenFlow aggregate-statistics
  API DARD's monitors poll (bandwidth and elephant count per egress port).

Rate dynamics: after any membership change the weighted max-min allocation
is recomputed once (changes at the same instant are coalesced through a
zero-delay event) and the next completion event is rescheduled.

Performance architecture (see DESIGN.md): every directed link is interned
to a dense integer id by a :class:`~repro.simulator.linkindex.LinkIndex`
built once per network. Capacities, delays, failure state, flow counters,
and utilizations live in numpy arrays indexed by link id; each flow's
components are indexed to link ids exactly once at start/reroute and
reused by counter updates, reallocation, reordering estimates, and
invariant checks. The reallocator hands the allocator each demand's cached
link-id list as a plain row, so the per-event hot path never hashes a
``(str, str)`` link key. :meth:`perf_stats` exposes the reallocation
telemetry.

Component-scoped reallocation (see DESIGN.md "Component decomposition"):
max-min allocation decomposes exactly across connected components of the
flow-link incidence graph, so each coalesced realloc re-water-fills only
the components invalidated since the last one — found by walking an
exact link -> live-flows index
(:class:`~repro.simulator.components.FlowLinkComponents`) from the links
whose flow sets changed — and splices the new rates and the loads the
allocator returns into the persistent per-link load array. The first
fill is the same refill over every attached flow. A cable failure or
restore dirties the cable's own links, so it re-fills only the component
of the flows crossing it. Rates, loads, utilizations, FCTs, and the
event sequence are bit-identical to a global fill over every live
demand, which :func:`repro.validation.twins.full_refill_reference`
keeps as a reference twin (its fills are the ones ``perf_stats`` counts
as ``realloc_full``, 0 in production); only the ``filling_iterations``
count differs (per-component fills count symmetric cross-component ties
as separate rounds).

Monitoring queries are vectorized the same way:
:meth:`batch_path_state_arrays` takes a ToR pair's dense ``(paths,
hops)`` link-id matrix and picks every path's bottleneck BoNF in one
pass over the dense capacity/elephant/failure arrays, replacing
per-link :meth:`link_state` loops; DARD's monitors poll it directly on
every query, with no cache in between.

Columnar flow state (see DESIGN.md "Columnar flow state"): hot per-flow
scalars live in a :class:`~repro.simulator.flowstore.FlowStore` — SoA
numpy columns bound to each flow at :meth:`start_flow` and released at
completion — so the three remaining per-event loops are masked array
expressions over the active span: ``_settle`` drains remaining bytes for
every live flow at once, ``_schedule_next_completion`` takes a masked min
over ``remaining * 8 / goodput``, and ``_on_completion_event`` finds
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.common.errors import InvariantViolation, SimulationError
from repro.common.logging import get_logger
from repro.topology.multirooted import MultiRootedTopology
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
_NO_FILL = Allocation([], 0, [], [])

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
        engine: Optional[EventEngine] = None,
        elephant_age_s: float = ELEPHANT_AGE_S,
        path_switch_retx_bytes: float = PATH_SWITCH_RETX_BYTES,
        elephant_detector: str = "threshold",
        detector_params: Optional[dict] = None,
    ) -> None:
        self.topology = topology
        self.engine = engine if engine is not None else EventEngine()
        self.elephant_age_s = elephant_age_s
        #: pluggable elephant detection. ``"threshold"`` (default) is the
        #: paper's age timer, inline in :meth:`start_flow` — the exact
        #: historical event sequence. ``"predictive"`` installs the
        #: EWMA-over-first-RTTs classifier (see ``detectors`` module).
        if elephant_detector == "threshold":
            if detector_params:
                raise SimulationError(
                    "threshold detector takes no detector_params; got "
                    f"{sorted(detector_params)}"
                )
            self.elephant_detector = None
        elif elephant_detector == "predictive":
            from repro.simulator.detectors import PredictiveElephantDetector

            self.elephant_detector = PredictiveElephantDetector(
                **(detector_params or {})
            )
            self.elephant_detector.attach(self)
        else:
            raise SimulationError(
                "elephant_detector must be 'threshold' or 'predictive', "
                f"got {elephant_detector!r}"
            )
        self.path_switch_retx_bytes = path_switch_retx_bytes

        #: the per-network intern table; all per-link arrays align to it.
        self.link_index = LinkIndex.from_topology(topology)
        self._cap_array = self.link_index.capacities
        self._delay_array = self.link_index.delays
        num_links = len(self.link_index)
        self._total_array = np.zeros(num_links, dtype=np.int64)
        self._eleph_array = np.zeros(num_links, dtype=np.int64)
        self._util_array = np.zeros(num_links, dtype=float)
        self._peak_util_array = np.zeros(num_links, dtype=float)
        self._failed_mask = np.zeros(num_links, dtype=bool)
        #: ids of the failed directed links: the refill's dead-demand test
        #: (``isdisjoint`` against a demand's link-id list).
        self._failed_ids: Set[int] = set()
        #: persistent per-link allocated load (bits/s). Each refill zeroes
        #: the retired links and writes the allocator's loads on the links
        #: its rows cross (bit-exact, see maxmin_allocate_indexed).
        self._load_array = np.zeros(num_links, dtype=float)

        #: live flow-link incidence index; its dirty marks pick what the
        #: next refill re-fills.
        self._components = FlowLinkComponents()
        #: unique-link-id arrays of flows that departed (completion, or the
        #: old path at reroute) or whose demands a fail/restore killed or
        #: revived, since the last fill — their load entries are zeroed by
        #: the next dirty refill.
        self._retired_link_ids: List[np.ndarray] = []

        #: extra checks run at the end of :meth:`check_invariants`; the
        #: validation layer registers its composable invariants here.
        self.invariant_hooks: List[Callable[["Network"], None]] = []

        # String-keyed copy of the capacities, for the baselines, the
        # reference allocator and the validation checks.
        self.capacities: Dict[LinkId, float] = {
            link: float(cap)
            for link, cap in zip(self.link_index.links, self._cap_array)
        }

        self.flows: Dict[int, Flow] = {}
        #: columnar hot flow state; every flow in ``flows`` is bound to a
        #: store row from start to completion (see flowstore module docs).
        self.flow_store = FlowStore()
        self.records: List[FlowRecord] = []
        self._next_flow_id = 0
        self._last_settle = 0.0
        self._realloc_pending = False
        self._completion_handle: Optional[EventHandle] = None

        self.flow_started_listeners: List[Listener] = []
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
        #: merges its ``cp_*`` telemetry through this seam).
        self.controlplane_stats_providers: List[Callable[[], Dict[str, float]]] = []

        # Reallocation / event telemetry (see perf_stats).
        self._stat_realloc_calls = 0
        self._stat_realloc_requests = 0
        self._stat_realloc_coalesced = 0
        self._stat_realloc_sync = 0
        self._stat_realloc_demands = 0
        self._stat_fill_iterations = 0
        self._stat_realloc_time_s = 0.0
        self._stat_flows_started = 0
        self._stat_flows_completed = 0
        self._stat_reroutes = 0
        # Incremental-reallocation telemetry (see perf_stats).
        self._stat_realloc_full = 0
        self._stat_realloc_incremental = 0
        self._stat_realloc_subset = 0
        self._stat_components_touched = 0
        self._stat_flows_rerated = 0
        self._stat_flows_preserved = 0
        self._stat_events_rescheduled = 0
        self._stat_events_preserved = 0
        # Columnar settle/ETA telemetry (see perf_stats).
        self._stat_settle_time_s = 0.0
        self._stat_eta_time_s = 0.0
        self._stat_settle_batches = 0

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
        self._settle()
        flow = Flow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            size_bytes=float(size_bytes),
            start_time=self.now,
            components=list(components),
        )
        self._next_flow_id += 1
        flow.bind_store(self.flow_store, self.flow_store.acquire(flow.flow_id))
        self._index_components(flow)
        flow.component_rates = [0.0] * len(flow.components)
        if len(flow.components) == 1:
            flow.path_history.append(flow.components[0].path)
        self.flows[flow.flow_id] = flow
        self._adjust_link_counts(flow, +1)
        self._components.attach(flow.flow_id, flow.unique_link_ids)
        self._stat_flows_started += 1
        if self.elephant_detector is None:
            self.engine.schedule_in(
                self.elephant_age_s,
                lambda fid=flow.flow_id: self._promote_elephant(fid),
            )
        else:
            self.elephant_detector.on_flow_started(flow)
        for listener in self.flow_started_listeners:
            listener(flow)
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
        self._settle()
        self._adjust_link_counts(flow, -1)
        # The old links' component is dirty (this flow's load leaves it)
        # and the old link ids must be zeroed out of the load array.
        self._components.detach(flow.flow_id)
        self._retired_link_ids.append(flow.unique_link_ids)
        flow.components = list(components)
        self._index_components(flow)
        flow.component_rates = [0.0] * len(flow.components)
        # Keep the store's rate column in lockstep with the zeroed list —
        # the scalar settle twin and the store pass must agree between
        # the reroute and the coalesced refill that re-rates the flow.
        self.flow_store.rate_bps[flow.store_row] = 0.0
        self._adjust_link_counts(flow, +1)
        self._components.attach(flow.flow_id, flow.unique_link_ids)
        self._stat_reroutes += 1
        if count_switch:
            flow.path_switches += 1
            if len(flow.components) == 1:
                flow.path_history.append(flow.components[0].path)
        if retx_penalty and self.path_switch_retx_bytes > 0:
            penalty = min(self.path_switch_retx_bytes, flow.remaining_bytes)
            flow.retransmitted_bytes += penalty
            flow.remaining_bytes += penalty
        self._request_realloc()

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
        of the flows crossing the cable are dead, so the fill is the
        dirty fill of their component: the cable's links become dirty,
        and every link of those flows is retired (zeroed before the
        refill writes the loads of the demands still alive).
        """
        crossing = self._components.touch(ids)
        if crossing:
            self._retired_link_ids.append(np.array(crossing, dtype=np.intp))
        self._stat_realloc_sync += 1
        self._reallocate()

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
            total_flows=int(self._total_array[index]),
        )

    def _bottleneck(self, hops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row bottleneck of a ``(paths, hops)`` link-id matrix:
        ``(bandwidth array, chosen link ids)``.

        The shared core of :meth:`batch_path_state_arrays` and
        :meth:`path_state`: ``np.argmin`` picks each row's *first*
        minimum-BoNF link, as a sequential ``min()`` over the row's
        :meth:`link_state` values does.
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
        return band[rows, first], hops[rows, first]

    def batch_path_state_arrays(self, hops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-path bottleneck ``(bandwidth, elephant count)`` arrays.

        ``hops`` is a ``(paths, hops)`` link-id matrix: row ``k`` lists
        path ``k``'s switch-switch links (a ToR pair's
        :meth:`~repro.topology.paths.EqualCostPaths.hop_links`). Row
        ``k``'s bottleneck is its *first* minimum-BoNF link; the two
        returned arrays (float64 bandwidth, int64 elephant count) are that
        link's :meth:`link_state` values, without building any
        :class:`LinkState` object. Both arrays are fresh on every call.
        """
        band, chosen = self._bottleneck(hops)
        return band, self._eleph_array[chosen]

    def path_state(self, path: Sequence[str]) -> LinkState:
        """The most-congested-link state along a node path (paper §2.5).

        The host-switch hops are dropped — a flow cannot route around
        those, so DARD excludes them from BoNF (§2.2). Monitors poll a
        whole pair through :meth:`batch_path_state_arrays` instead.
        """
        ids = self.link_index.index_path(path)
        ids = ids[self.link_index.switch_link_mask[ids]]
        if ids.size == 0:
            raise SimulationError(f"path {path!r} has no switch-switch links")
        band, chosen = self._bottleneck(ids[None, :])
        link = int(chosen[0])
        return LinkState(
            bandwidth_bps=float(band[0]),
            elephant_flows=int(self._eleph_array[link]),
            total_flows=int(self._total_array[link]),
        )

    def utilization(self, u: str, v: str) -> float:
        """Most recent allocated utilization of the directed link ``u -> v``."""
        index = self.link_index.ids.get((u, v))
        if index is None:
            return 0.0
        return float(self._util_array[index])

    def peak_utilization(self, u: str, v: str) -> float:
        """Highest allocated utilization ``u -> v`` ever reached this run."""
        index = self.link_index.ids.get((u, v))
        if index is None:
            return 0.0
        return float(self._peak_util_array[index])

    def peak_utilization_summary(self) -> Dict[str, float]:
        """Fabric-wide peak-utilization digest (golden-trace material).

        ``max`` is the hottest instantaneous link utilization of the run;
        ``mean`` averages each link's peak over all links; ``saturated``
        counts links that ever reached >= 99% utilization.
        """
        peaks = self._peak_util_array
        return {
            "max": float(peaks.max(initial=0.0)),
            "mean": float(peaks.mean()) if peaks.size else 0.0,
            "saturated": int(np.count_nonzero(peaks >= 0.99)),
        }

    # -- telemetry ---------------------------------------------------------------

    def perf_stats(self) -> Dict[str, float]:
        """Reallocation and event telemetry for this network's lifetime.

        Keys:

        * ``realloc_calls`` — times the allocator actually ran;
        * ``realloc_requests`` — membership changes that asked for one;
        * ``realloc_coalesced`` — requests absorbed into an already-pending
          zero-delay reallocation (the coalescing win);
        * ``realloc_sync`` — synchronous reallocations from fail/restore
          (refills of the cable's component);
        * ``realloc_demands`` — total demands handed to the allocator;
        * ``filling_iterations`` — total progressive-filling rounds;
        * ``realloc_time_s`` — wall time spent inside reallocation;
        * ``flows_started`` / ``flows_completed`` / ``reroutes`` — event
          counts, for cross-checking the counters above;
        * ``num_links`` — size of the link index.

        Component-scoped reallocation keys:

        * ``realloc_incremental`` / ``realloc_full`` — component-scoped
          refills vs global fills; they sum to ``realloc_calls``. Only
          the reference twin
          (:func:`repro.validation.twins.full_refill_reference`) makes
          global fills, so ``realloc_full`` reads 0 in production (the
          key stays for the twin's runs and the benchmark reports);
        * ``realloc_subset`` — component-scoped refills that re-rated
          fewer flows than were live (the locality win);
        * ``components_touched`` — exact flow-link components re-filled,
          summed over component-scoped refills;
        * ``flows_rerated`` / ``flows_preserved`` — flows re-water-filled
          vs left untouched, summed over component-scoped refills;
        * ``events_rescheduled`` / ``events_preserved`` — completion-event
          updates whose fire time moved vs stayed identical (preserved
          events are still cancel+re-pushed so event ordering stays
          deterministic; see ``EventEngine.reschedule``).

        Columnar flow-state keys: ``settle_time_s`` / ``eta_time_s`` —
        wall time inside the settle and completion-ETA passes;
        ``settle_batches`` — settle passes that actually advanced time
        over live flows; plus the ``store_*`` keys from
        :meth:`FlowStore.stats` (active span, capacity, live rows,
        acquires/revivals/grows/compactions).

        Registered ``controlplane_stats_providers`` (the DARD scheduler's
        ``cp_*`` keys — daemons, live monitors, query rounds, shifts and
        interned pairs; see DESIGN.md "Control-plane batching") are merged
        into the returned dict after the base keys.
        """
        stats: Dict[str, float] = {
            "realloc_calls": self._stat_realloc_calls,
            "realloc_requests": self._stat_realloc_requests,
            "realloc_coalesced": self._stat_realloc_coalesced,
            "realloc_sync": self._stat_realloc_sync,
            "realloc_demands": self._stat_realloc_demands,
            "filling_iterations": self._stat_fill_iterations,
            "realloc_time_s": self._stat_realloc_time_s,
            "flows_started": self._stat_flows_started,
            "flows_completed": self._stat_flows_completed,
            "reroutes": self._stat_reroutes,
            "num_links": len(self.link_index),
            "realloc_full": self._stat_realloc_full,
            "realloc_incremental": self._stat_realloc_incremental,
            "realloc_subset": self._stat_realloc_subset,
            "components_touched": self._stat_components_touched,
            "flows_rerated": self._stat_flows_rerated,
            "flows_preserved": self._stat_flows_preserved,
            "events_rescheduled": self._stat_events_rescheduled,
            "events_preserved": self._stat_events_preserved,
            "settle_time_s": self._stat_settle_time_s,
            "eta_time_s": self._stat_eta_time_s,
            "settle_batches": self._stat_settle_batches,
        }
        stats.update(self.flow_store.stats())
        if self.elephant_detector is not None:
            stats.update(self.elephant_detector.stats())
        for provider in self.controlplane_stats_providers:
            stats.update(provider())
        return stats

    # -- self-checks --------------------------------------------------------------

    @property
    def realloc_pending(self) -> bool:
        """Whether a coalesced zero-delay reallocation is still queued.

        While pending, component rates are stale relative to flow
        membership — allocation-optimality certificates (the validation
        layer's KKT check) only hold at quiescent points where this is
        False. The base invariants checked by :meth:`check_invariants`
        hold regardless.
        """
        return self._realloc_pending

    def live_demand_view(self) -> Tuple[List, List[Tuple[Flow, int]]]:
        """String-keyed ``(demands, owners)`` of the current live components.

        Mirrors exactly what :meth:`_reallocate` hands the allocator —
        components crossing a failed link are skipped — but in the
        string-keyed ``(links, weight)`` form the reference allocator and
        the differential oracles consume. ``owners[i]`` is the
        ``(flow, component_index)`` that demand ``i`` belongs to.
        """
        demands = []
        owners: List[Tuple[Flow, int]] = []
        for flow in self.flows.values():
            for idx, component in enumerate(flow.components):
                links = component.links()
                if self.failed_links and any(l in self.failed_links for l in links):
                    continue
                demands.append((links, component.weight))
                owners.append((flow, idx))
        return demands, owners

    def check_invariants(self) -> None:
        """Check the simulation's global invariants; raises on violation.

        Intended for debugging user extensions (custom schedulers,
        handwritten event sequences) and for the validation layer's
        continuous checking: call at any quiescent point. Checks

        * link flow-counters match a from-scratch recount,
        * no link is allocated beyond capacity,
        * failed links carry no allocated rate,
        * per-flow byte accounting is sane,
        * the flow store binds exactly the live flows, its rate column
          equals each live flow's ``sum(component_rates)`` and every dead
          row in its active span carries rate 0.0,

        then runs every registered :attr:`invariant_hooks` entry.
        Violations raise :class:`~repro.common.errors.InvariantViolation`
        carrying the offending link / flow id, so the fuzzer and CI can
        report them structurally.

        The recount re-derives link ids from component paths — it does not
        trust the per-flow caches it is auditing.
        """
        num_links = len(self.link_index)
        expected_total = np.zeros(num_links, dtype=np.int64)
        expected_eleph = np.zeros(num_links, dtype=np.int64)
        load = np.zeros(num_links, dtype=float)
        #: flow id -> unique link ids, recounted from the component paths.
        recount_links: Dict[int, List[int]] = {}
        for flow in self.flows.values():
            flow_ids: List[np.ndarray] = []
            for component, rate in zip(flow.components, flow.component_rates):
                ids = self.link_index.index_links(component.links())
                flow_ids.append(ids)
                load[ids] += rate
            unique = np.unique(np.concatenate(flow_ids)) if flow_ids else np.empty(0, np.intp)
            recount_links[flow.flow_id] = unique.tolist()
            expected_total[unique] += 1
            if flow.is_elephant:
                expected_eleph[unique] += 1
        for name, actual, expected in (
            ("total-flow", self._total_array, expected_total),
            ("elephant", self._eleph_array, expected_eleph),
        ):
            bad = np.nonzero(actual != expected)[0]
            if bad.size:
                link = self.link_index.links[int(bad[0])]
                raise InvariantViolation(
                    f"{name}-counter",
                    f"counter {int(actual[bad[0]])} != recount {int(expected[bad[0]])}",
                    link=link,
                )
        over = np.nonzero(load > self._cap_array * (1 + 1e-6))[0]
        if over.size:
            link = self.link_index.links[int(over[0])]
            raise InvariantViolation(
                "link-capacity",
                f"allocated {load[over[0]]} over capacity {self.capacities[link]}",
                link=link,
            )
        dead_loaded = np.nonzero(self._failed_mask & (load > 0))[0]
        if dead_loaded.size:
            link = self.link_index.links[int(dead_loaded[0])]
            raise InvariantViolation(
                "dead-link-load",
                f"failed link carries rate {load[dead_loaded[0]]}",
                link=link,
            )
        # The persistent load array must match the recount whenever rates
        # are settled (while a realloc is pending, rates are stale by design).
        if not self._realloc_pending and not np.allclose(
            load, self._load_array, rtol=1e-9, atol=1e-6
        ):
            bad = int(np.nonzero(~np.isclose(load, self._load_array, rtol=1e-9, atol=1e-6))[0][0])
            raise InvariantViolation(
                "persistent-load",
                f"load array {self._load_array[bad]!r} != recount {load[bad]!r}",
                link=self.link_index.links[bad],
            )
        self._audit_component_index(self._components, recount_links)
        for flow in self.flows.values():
            if flow.remaining_bytes < 0:
                raise InvariantViolation(
                    "byte-accounting",
                    f"negative remaining bytes {flow.remaining_bytes}",
                    flow_id=flow.flow_id,
                )
            if flow.remaining_bytes > flow.size_bytes + flow.retransmitted_bytes + 1.0:
                raise InvariantViolation(
                    "byte-accounting",
                    f"remaining {flow.remaining_bytes} exceeds size+retx "
                    f"{flow.size_bytes + flow.retransmitted_bytes}",
                    flow_id=flow.flow_id,
                )
        store = self.flow_store
        live_rows = int(np.count_nonzero(store.live[: store.size]))
        if store.live_count != len(self.flows) or live_rows != len(self.flows):
            raise InvariantViolation(
                "flow-store",
                f"store live_count {store.live_count} / live rows {live_rows} "
                f"!= {len(self.flows)} live flows",
            )
        # The settle and ETA passes mask dead rows by their zero rate alone.
        rated_dead = np.flatnonzero(
            ~store.live[: store.size] & (store.rate_bps[: store.size] != 0.0)
        )
        if rated_dead.size:
            row = int(rated_dead[0])
            raise InvariantViolation(
                "flow-store-dead-rate",
                f"dead store row {row} carries rate {float(store.rate_bps[row])!r}",
            )
        for flow in self.flows.values():
            row = flow.store_row
            if row < 0 or not bool(store.live[row]) or int(store.flow_id[row]) != flow.flow_id:
                raise InvariantViolation(
                    "flow-store",
                    f"flow bound to row {row} whose store entry is "
                    f"live={bool(store.live[row]) if row >= 0 else None} "
                    f"flow_id={int(store.flow_id[row]) if row >= 0 else None}",
                    flow_id=flow.flow_id,
                )
            # The refill write contract: the rate column is *bit-equal*
            # to the left-to-right component-rate sum, always — both are
            # rewritten together at every membership change and refill.
            want_rate = sum(flow.component_rates)
            if float(store.rate_bps[row]) != want_rate:
                raise InvariantViolation(
                    "flow-store-rate",
                    f"rate column {float(store.rate_bps[row])!r} != "
                    f"sum(component_rates) {want_rate!r}",
                    flow_id=flow.flow_id,
                )
            frac = float(store.retx_fraction[row])
            if float(store.goodput_factor[row]) != 1.0 - frac:
                raise InvariantViolation(
                    "flow-store-goodput",
                    f"goodput factor {float(store.goodput_factor[row])!r} != "
                    f"1 - retx fraction {1.0 - frac!r}",
                    flow_id=flow.flow_id,
                )
        for hook in tuple(self.invariant_hooks):
            hook(self)

    def _audit_component_index(
        self, comps: FlowLinkComponents, recount_links: Dict[int, List[int]]
    ) -> None:
        """Check the link -> flows index against a recount of the live flows.

        ``recount_links`` maps each live flow to its unique link ids,
        re-derived from its component paths. Each live flow must be listed
        on exactly those links, with no stale flow ids and no empty link
        entries, and the index's own flow -> links map must agree.
        """
        expected: Dict[int, Set[int]] = {}
        for flow_id, links in recount_links.items():
            for link in links:
                expected.setdefault(link, set()).add(flow_id)
        indexed = comps.link_flows()
        if indexed != expected:
            link = min(
                lid for lid in expected.keys() | indexed.keys()
                if indexed.get(lid) != expected.get(lid)
            )
            got, want = indexed.get(link, set()), expected.get(link, set())
            raise InvariantViolation(
                "component-index",
                f"index lists flows {sorted(got)[:5]} where the live flows are "
                f"{sorted(want)[:5]} (stale {sorted(got - want)[:5]}, "
                f"missing {sorted(want - got)[:5]})",
                link=self.link_index.links[link],
            )
        flow_links = comps.flow_links()
        if flow_links != recount_links:
            flow_id = min(
                fid for fid in flow_links.keys() | recount_links.keys()
                if flow_links.get(fid) != recount_links.get(fid)
            )
            raise InvariantViolation(
                "component-index",
                f"indexed links {flow_links.get(flow_id)} != recount "
                f"{recount_links.get(flow_id)}",
                flow_id=flow_id,
            )

    # -- internals --------------------------------------------------------------

    def _index_components(self, flow: Flow) -> None:
        """Validate a flow's components and cache their link ids.

        Runs exactly once per start/reroute; every later hot path
        (counter scatter, row assembly, reordering estimate) reuses the
        per-component link-id lists and the unique link-id array cached
        here.
        """
        component_ids: List[np.ndarray] = []
        for component in flow.components:
            if component.path[0] != flow.src or component.path[-1] != flow.dst:
                raise SimulationError(
                    f"component path {component.path!r} does not connect "
                    f"{flow.src!r} to {flow.dst!r}"
                )
            component_ids.append(self.link_index.index_links(component.links()))
        flow.component_link_ids = [ids.tolist() for ids in component_ids]
        if len(component_ids) == 1:
            flow.unique_link_ids = np.unique(component_ids[0])
        else:
            flow.unique_link_ids = np.unique(np.concatenate(component_ids))

    def _adjust_link_counts(self, flow: Flow, delta: int) -> None:
        ids = flow.unique_link_ids
        self._total_array[ids] += delta
        if flow.is_elephant:
            self._eleph_array[ids] += delta

    def _promote_elephant(self, flow_id: int) -> None:
        flow = self.flows.get(flow_id)
        if flow is None or flow.is_elephant:
            return
        # Temporarily remove, flip, re-add so elephant counters stay exact.
        self._adjust_link_counts(flow, -1)
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
            # perf_counter feeds perf_stats() telemetry only, never sim state.
            started = perf_counter()  # dardlint: disable=DET002
            self._settle_store(dt)
            self._stat_settle_time_s += perf_counter() - started  # dardlint: disable=DET002
            self._stat_settle_batches += 1
        self._last_settle = self.now

    def _settle_store(self, dt: float) -> None:
        """Vectorized settle over the flow-store columns.

        Bit-identical to the scalar per-flow loop in
        :mod:`repro.validation.twins`: the mask replicates the scalar
        ``delivered_bits <= 0`` skip, the per-row op sequence is the same
        float64 expression tree, and the rate column is kept bit-equal to
        ``sum(component_rates)`` by the refill. Dead rows carry rate 0.0
        (``FlowStore.release`` zeroes it; :meth:`check_invariants` audits
        it), so the rate mask alone excludes them.
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
        self._stat_realloc_requests += 1
        if self._realloc_pending:
            self._stat_realloc_coalesced += 1
            return
        self._realloc_pending = True
        self.engine.schedule_in(0.0, self._reallocate)

    def _assemble_demands(
        self, flows: Sequence[Flow]
    ) -> Tuple[List[List[int]], List[float], List[Tuple[Flow, int]]]:
        """Per-component (link-id rows, weights, owners) of live demands.

        Components crossing a failed link are skipped — they carry nothing
        until rerouted. Shared by the refill, :meth:`demand_rows` and the
        full-refill reference twin, so the three can never drift apart.
        Each row is the flow's cached link-id list itself, not a copy.
        """
        rows: List[List[int]] = []
        weights: List[float] = []
        owners: List[Tuple[Flow, int]] = []
        failed = self._failed_ids
        for flow in flows:
            for idx, ids in enumerate(flow.component_link_ids):
                if failed and not failed.isdisjoint(ids):
                    continue  # dead component: carries nothing until rerouted
                rows.append(ids)
                weights.append(flow.components[idx].weight)
                owners.append((flow, idx))
        return rows, weights, owners

    def demand_rows(
        self,
    ) -> Tuple[List[List[int]], List[float], List[Tuple[Flow, int]]]:
        """``(rows, weights, owners)`` over all live demands.

        Exactly the rows a global fill would run on right now — the
        incremental-vs-full differential oracle feeds them to
        ``maxmin_allocate_indexed`` and demands bit-equality with the live
        ``component_rates``. ``rows[i]`` is the owner's cached link-id
        list: read it, never mutate it.
        """
        return self._assemble_demands(list(self.flows.values()))

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
    ) -> None:
        """Give every re-rated flow its fill's rates, list and store row.

        Each flow in ``flows`` gets a fresh ``component_rates`` list (dead
        components stay 0.0), and its store row one scalar write of that
        list's left-to-right sum: the rate column's bit-exact contract.
        """
        for flow in flows:
            flow.component_rates = [0.0] * len(flow.components)
        for (flow, idx), rate in zip(owners, rates):
            flow.component_rates[idx] = rate
        rate_col = self.flow_store.rate_bps
        for flow in flows:
            total = 0.0
            for rate in flow.component_rates:
                total += rate
            rate_col[flow.store_row] = total

    def _refresh_reordering(
        self, flows: Sequence[Flow], store_rows: Union[slice, List[int]]
    ) -> None:
        """Recompute the re-rated flows' reordering fractions after a splice.

        ``store_rows`` indexes those flows' store rows. With no striped
        flow among them (every scheduler but TeXCP) the reset is two
        column writes.
        """
        if any(len(flow.components) > 1 for flow in flows):
            for flow in flows:
                if len(flow.components) > 1:
                    flow.reorder_retx_fraction = reordering_retx_fraction_indexed(
                        flow.component_rates,
                        flow.component_link_ids,
                        self._delay_array,
                        self._util_array,
                    )
                else:
                    flow.reorder_retx_fraction = 0.0
        else:
            store = self.flow_store
            store.retx_fraction[store_rows] = 0.0
            store.goodput_factor[store_rows] = 1.0

    def _refill_dirty(self) -> None:
        """Water-fill only the components invalidated since the last fill.

        Exact by component decomposition (see DESIGN.md): every demand of a
        dirty component — exactly the live flows connected to a link whose
        flow set or failure state changed — is re-filled against the links'
        full capacities, read from ``_cap_array`` on every fill, while
        untouched components keep their rates, loads, utilizations, and
        reordering fractions bit-for-bit. The allocator returns the loads
        of the links the rows cross, so the splice is one pass: zero the
        retired links, write those loads, refresh util and peak on them.
        """
        touched, dirty_flow_ids = self._components.consume_dirty()
        flows = self.flows
        dirty_flows = [flows[flow_id] for flow_id in dirty_flow_ids]
        rows, weights, owners = self._assemble_demands(dirty_flows)
        fill = maxmin_allocate_indexed(rows, weights, self._cap_array) if rows else _NO_FILL
        self._write_rates(dirty_flows, owners, fill.rates)
        load, util = self._load_array, self._util_array
        retired = self._retired_link_ids
        for ids in retired:
            load[ids] = 0.0
            util[ids] = 0.0
        retired.clear()
        if rows:
            ids = np.asarray(fill.links, dtype=np.intp)
            load[ids] = fill.loads
            fresh = load[ids] / self._cap_array[ids]
            util[ids] = fresh
            peak = self._peak_util_array
            peak[ids] = np.maximum(peak[ids], fresh)
        self._stat_realloc_demands += len(rows)
        self._stat_fill_iterations += fill.iterations
        if dirty_flows:
            self._refresh_reordering(dirty_flows, [flow.store_row for flow in dirty_flows])
        self._stat_realloc_incremental += 1
        self._stat_components_touched += touched
        if len(dirty_flows) < len(flows):
            self._stat_realloc_subset += 1
        self._stat_flows_rerated += len(dirty_flows)
        self._stat_flows_preserved += len(flows) - len(dirty_flows)

    def _schedule_next_completion(self) -> None:
        old_handle = self._completion_handle
        self._completion_handle = None
        # perf_counter feeds perf_stats() telemetry only, never sim state.
        started = perf_counter()  # dardlint: disable=DET002
        soonest = self._next_completion_eta_store()
        # Telemetry end-stamp for the line above; same audit rationale.
        self._stat_eta_time_s += perf_counter() - started  # dardlint: disable=DET002
        if soonest < float("inf"):
            self._completion_handle, preserved = self.engine.reschedule(
                old_handle, max(soonest, 0.0), self._on_completion_event
            )
            if preserved:
                self._stat_events_preserved += 1
            else:
                self._stat_events_rescheduled += 1
        elif old_handle is not None:
            old_handle.cancel()

    def _next_completion_eta_store(self) -> float:
        """Masked min over ``remaining * 8 / goodput`` across the store.

        ``goodput_factor`` is maintained as exactly ``1.0 - retx_fraction``
        at every fraction write, so ``rate * factor`` is bit-identical to
        the scalar ``rate_bps * (1.0 - reorder_retx_fraction)`` and the
        array min equals the sequential ``min()`` reduction. Dead rows
        carry rate 0.0, so the goodput mask alone excludes them.
        """
        store = self.flow_store
        n = store.size
        goodput = store.rate_bps[:n] * store.goodput_factor[:n]
        rows = np.flatnonzero(goodput > 0.0)
        if rows.size == 0:
            return float("inf")
        etas = (store.remaining_bytes[rows] * 8.0) / goodput[rows]
        return float(etas.min())

    def _find_finishers_store(self) -> List[Flow]:
        """Boolean-mask finisher scan over the store's remaining column.

        Finishers come back sorted by flow id — identical to the scalar
        dict scan, since flow ids are assigned monotonically and flows are
        never reinserted, so dict order *is* ascending flow-id order. This
        scan keeps its ``live`` mask: dead rows keep the (at most one byte
        of) remaining bytes they finished with.
        """
        store = self.flow_store
        n = store.size
        rows = np.flatnonzero(
            store.live[:n] & (store.remaining_bytes[:n] <= _BYTES_EPSILON)
        )
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
            self._components.detach(flow.flow_id)
            self._retired_link_ids.append(flow.unique_link_ids)
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
            # Snapshot the columns into the view object before the row is
            # returned to the pool: records, listeners, and any held
            # references keep reading the final state after row revival.
            row = flow.store_row
            flow.unbind_store()
            self.flow_store.release(row)
        self._request_realloc()
