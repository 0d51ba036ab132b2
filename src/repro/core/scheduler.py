"""DARD as a pluggable scheduler.

Wires per-host daemons into the simulator:

* placement uses ECMP hashing ("DARD utilizes ECMP as the default routing
  mechanism", §2.4) — adaptivity only ever concerns elephants;
* the network's elephant promotions and flow completions are dispatched to
  the owning host's daemon (the Elephant Flow Detector's view);
* every daemon independently polls its monitors each ``query_interval_s``
  (1 s) and runs a selfish scheduling round every ``scheduling_interval_s``
  (5 s) **plus a uniform random 1-5 s re-drawn each round** — the paper
  credits exactly this per-host randomization for the absence of
  synchronized path flapping (§4.2). Set ``synchronized=True`` to disable
  the jitter and reproduce the pathological case (ablation bench).

The scheduler owns a fleet-wide
:class:`~repro.core.registry.MonitorRegistry`, which interns each
(src ToR, dst ToR) pair's paths and link-id matrix once; every monitor
poll reads the network directly (see DESIGN.md "Control-plane
batching"). The ``cp_query_rounds`` counter reaches
``Network.perf_stats()``; control-plane wall time is measured from
outside, around :meth:`HostDaemon.query_monitors` and
:meth:`HostDaemon.run_scheduling_round` (perfbench's ``core.query`` and
``core.round`` layers). The original scalar control plane (per-monitor
:class:`~repro.core.bonf.PathState` objects, tuple-keyed FV) is the
reference twin in :mod:`repro.validation.twins`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.units import MBPS
from repro.scheduling.base import Scheduler, SchedulerContext
from repro.simulator.flows import Flow, FlowComponent
from repro.baselines.ecmp import hash_components
from repro.core.daemon import HostDaemon, ShiftRecord
from repro.core.registry import MonitorRegistry

DEFAULT_DELTA_BPS = 10 * MBPS
DEFAULT_QUERY_INTERVAL_S = 1.0
DEFAULT_SCHEDULING_INTERVAL_S = 5.0
DEFAULT_JITTER_RANGE_S = (1.0, 5.0)


class DardScheduler(Scheduler):
    """Distributed Adaptive Routing for Datacenter networks."""

    name = "dard"

    def __init__(
        self,
        delta_bps: float = DEFAULT_DELTA_BPS,
        query_interval_s: float = DEFAULT_QUERY_INTERVAL_S,
        scheduling_interval_s: float = DEFAULT_SCHEDULING_INTERVAL_S,
        jitter_range_s: tuple = DEFAULT_JITTER_RANGE_S,
        synchronized: bool = False,
    ) -> None:
        super().__init__()
        self.delta_bps = delta_bps
        self.query_interval_s = query_interval_s
        self.scheduling_interval_s = scheduling_interval_s
        self.jitter_range_s = jitter_range_s
        self.synchronized = synchronized
        self.daemons: Dict[str, HostDaemon] = {}
        self.registry: Optional[MonitorRegistry] = None
        #: fleet-wide shift journal, in event order (shared by all
        #: daemons); the reference twins compare these.
        self.shift_log: List[ShiftRecord] = []
        #: ``query_monitors`` calls, periodic and priming alike.
        self._stat_query_rounds = 0

    def attach(self, ctx: SchedulerContext) -> None:
        super().attach(ctx)
        self.registry = MonitorRegistry(ctx.network)
        ctx.network.elephant_listeners.append(self._on_elephant)
        ctx.network.flow_completed_listeners.append(self._on_flow_completed)
        ctx.network.controlplane_stats_providers.append(self.controlplane_stats)

    def _jitter(self) -> float:
        if self.synchronized:
            return 0.0
        low, high = self.jitter_range_s
        return float(self.ctx.rng.uniform(low, high))

    # -- placement: ECMP until an elephant proves otherwise -----------------------

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        return hash_components(self, src, dst)

    # -- detector dispatch ----------------------------------------------------------

    def daemon_for(self, host: str) -> HostDaemon:
        """The host's daemon, created (and its control loops armed) lazily."""
        daemon = self.daemons.get(host)
        if daemon is None:
            daemon = HostDaemon(
                host=host,
                network=self.ctx.network,
                codec=self.ctx.codec,
                ledger=self.ledger,
                delta_bps=self.delta_bps,
                registry=self.registry,
                shift_log=self.shift_log,
            )
            self.daemons[host] = daemon
            # Each host runs its own independent control loops; the
            # scheduling loop re-draws its random jitter every round.
            self.ctx.engine.schedule_every(
                self.query_interval_s, lambda d=daemon: self._poll(d)
            )
            self.ctx.engine.schedule_every(
                self.scheduling_interval_s,
                lambda d=daemon: d.run_scheduling_round(),
                jitter=self._jitter,
            )
        return daemon

    def _poll(self, daemon: HostDaemon) -> None:
        """One ``query_monitors`` call, counted as ``cp_query_rounds``."""
        daemon.query_monitors()
        self._stat_query_rounds += 1

    def _on_elephant(self, flow: Flow) -> None:
        daemon = self.daemon_for(flow.src)
        daemon.on_elephant(flow)
        # Prime the new monitor immediately so the first scheduling round
        # after detection sees real path states rather than zeros.
        self._poll(daemon)

    def _on_flow_completed(self, flow: Flow) -> None:
        daemon = self.daemons.get(flow.src)
        if daemon is not None:
            daemon.on_flow_completed(flow)

    # -- statistics ----------------------------------------------------------------------

    def total_shifts(self) -> int:
        """Total selfish path shifts performed across all host daemons."""
        return sum(d.shifts_performed for d in self.daemons.values())

    def controlplane_stats(self) -> Dict[str, float]:
        """``cp_query_rounds``, merged into ``Network.perf_stats()``:
        perfbench checks it against its wrapped ``core.query`` calls."""
        return {"cp_query_rounds": float(self._stat_query_rounds)}
