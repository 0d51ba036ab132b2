"""Analytic control-plane overhead models (paper §4.3.4, Fig. 15).

The paper's scalability argument is asymptotic, not experimental: DARD's
probe traffic is *bounded by topology size* — in the worst case every host
monitors every other ToR ("the system only needs to handle all pair
probes") — while a centralized scheduler's report/update traffic grows
with the number of elephant flows. These closed forms make that argument
executable; tests and benches check the simulator never exceeds them.
Every form prices messages at the paper's fixed sizes
(:data:`~repro.scheduling.messages.MESSAGE_SIZES`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.messages import MESSAGE_SIZES
from repro.topology.multirooted import MultiRootedTopology
from repro.core.monitor import switches_to_query


@dataclass(frozen=True)
class OverheadModel:
    """Closed-form control-bandwidth bounds for one topology."""

    #: worst-case DARD probe bandwidth: all-pairs monitoring (bytes/s).
    dard_ceiling_bytes_per_s: float
    #: probe bytes per monitor per query round.
    bytes_per_monitor_round: float
    #: report bytes per elephant per centralized scheduling round.
    report_bytes_per_elephant: float


def bytes_per_monitor_round(
    topology: MultiRootedTopology,
    src_tor: str,
    dst_tor: str,
) -> float:
    """Probe bytes one monitor generates per query round (query + reply
    per switch in its Path State Assembling set)."""
    n = len(switches_to_query(topology, topology.equal_cost_paths(src_tor, dst_tor)))
    return n * (MESSAGE_SIZES.dard_query + MESSAGE_SIZES.dard_reply)


def dard_probe_ceiling_bytes_per_s(
    topology: MultiRootedTopology,
    query_interval_s: float = 1.0,
) -> float:
    """Worst-case DARD probe bandwidth: every host monitors every other ToR.

    This is the topology-size bound of Fig. 15's third stage. Exact — it
    sums the true per-pair query-set sizes rather than assuming the
    inter-pod maximum everywhere.
    """
    if query_interval_s <= 0:
        raise ValueError(f"query interval must be positive, got {query_interval_s}")
    tors = sorted(topology.tors())
    # Per source ToR, the cost of monitoring every other ToR; each host on
    # that ToR may run its own monitors (monitors are per host, §2.4.1).
    total = 0.0
    for src_tor in tors:
        hosts = len(topology.hosts_of_tor(src_tor))
        per_host = sum(
            bytes_per_monitor_round(topology, src_tor, dst_tor)
            for dst_tor in tors
            if dst_tor != src_tor
        )
        total += hosts * per_host
    return total / query_interval_s


def dard_probe_rate_bytes_per_s(
    topology: MultiRootedTopology,
    active_pairs: int,
    query_interval_s: float = 1.0,
) -> float:
    """Estimated DARD probe bandwidth with ``active_pairs`` live monitors,
    assuming inter-pod monitors (the common, most expensive case)."""
    tors = sorted(topology.tors())
    inter = next(
        (s, d)
        for s in tors
        for d in tors
        if topology.pod_of(s) != topology.pod_of(d)
    )
    per_round = bytes_per_monitor_round(topology, *inter)
    return active_pairs * per_round / query_interval_s


def centralized_rate_bytes_per_s(
    num_elephants: int,
    updates_per_round: int,
    scheduling_interval_s: float = 5.0,
) -> float:
    """Centralized control bandwidth: per-elephant reports plus table
    updates, per scheduling round — linear in flow count (Fig. 15's
    scaling argument)."""
    if scheduling_interval_s <= 0:
        raise ValueError(f"interval must be positive, got {scheduling_interval_s}")
    per_round = (
        num_elephants * MESSAGE_SIZES.report_to_controller
        + updates_per_round * MESSAGE_SIZES.update_from_controller
    )
    return per_round / scheduling_interval_s


def overhead_model(
    topology: MultiRootedTopology,
    query_interval_s: float = 1.0,
) -> OverheadModel:
    """Bundle the bounds for one topology."""
    tors = sorted(topology.tors())
    inter = next(
        (s, d)
        for s in tors
        for d in tors
        if topology.pod_of(s) != topology.pod_of(d)
    )
    return OverheadModel(
        dard_ceiling_bytes_per_s=dard_probe_ceiling_bytes_per_s(topology, query_interval_s),
        bytes_per_monitor_round=bytes_per_monitor_round(topology, *inter),
        report_bytes_per_elephant=float(MESSAGE_SIZES.report_to_controller),
    )
