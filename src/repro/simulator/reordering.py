"""Reordering-induced retransmission model for packet-level load balancing.

The paper's TeXCP comparison (§4.3.3, Figs. 13-14) turns on one mechanism:
splitting a single TCP flow across paths with *different latencies* delivers
packets out of order; three duplicate ACKs look like loss, so TCP
retransmits and halves its window, cutting goodput even when bisection
bandwidth is fully utilized (".. some of the packets are retransmitted and
thus its goodput is not as high as [DARD's]").

Our fluid simulator has no packets, so the effect is modelled analytically.
Each path's one-way delay is its propagation delay plus an M/M/1-style
queueing estimate ``q = prop * util / (1 - util)`` per link (capped). For a
flow striped over components with rates ``r_i`` and delays ``d_i``, the
chance that consecutive packets straddle paths ``i`` and ``j`` is
``p_i * p_j`` (``p_i = r_i / r``), and the effective delay gap between those
paths is

    gap_ij = |d_i - d_j| + (q_i + q_j) / 2

The second term models stochastic queue fluctuation: in an M/M/1 queue the
delay's standard deviation equals its mean, so even two paths with equal
*average* delay reorder packets when their queues are non-empty — this is
why TeXCP's retransmissions persist after it has balanced utilization.
The retransmitted fraction is then

    f = min(f_max, beta * sum_{i<j} p_i p_j * gap_ij / rtt_base)

``beta`` (:data:`BETA`) is a single calibration constant chosen so a
4-way even split over moderately loaded 0.1 ms-per-hop paths loses on the
order of 10-25% of packets — the middle of the paper's measured 0-50%
band (Fig. 14).

Single-component flows have zero reordering retransmission by construction;
their only retransmission cost is the per-path-switch window loss applied
by the network.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Calibration constant (see module docstring).
BETA = 0.8

#: Retransmission fraction ceiling; beyond ~50% TCP would collapse entirely
#: and the paper's measurements never exceed this.
MAX_RETX_FRACTION = 0.5

#: Queueing-delay cap, as a multiple of a link's propagation delay.
QUEUE_DELAY_CAP_FACTOR = 10.0


def reordering_retx_fraction_indexed(
    rates: Sequence[float],
    component_link_ids: Sequence[Sequence[int]],
    link_delays: np.ndarray,
    link_utils: np.ndarray,
) -> float:
    """Fraction of goodput retransmitted due to cross-path reordering.

    Takes the flow's component link-id rows plus the network's dense
    per-link delay and utilization arrays; per-path delay estimates are
    vectorized gathers.
    """
    if len(component_link_ids) < 2:
        return 0.0
    total_rate = sum(rates)
    if total_rate <= 0:
        return 0.0
    totals: List[float] = []
    queues: List[float] = []
    for ids in component_link_ids:
        prop = link_delays[ids]
        util = np.minimum(link_utils[ids], 0.99)
        queue = prop * np.minimum(QUEUE_DELAY_CAP_FACTOR, util / (1.0 - util))
        prop_total = float(prop.sum())
        queue_total = float(queue.sum())
        totals.append(prop_total + queue_total)
        queues.append(queue_total)
    rtt_base = 2.0 * min(totals)
    if rtt_base <= 0:
        rtt_base = 1e-6
    spread_term = 0.0
    for i in range(len(totals)):
        p_i = rates[i] / total_rate
        if p_i <= 0:
            continue
        for j in range(i + 1, len(totals)):
            p_j = rates[j] / total_rate
            if p_j <= 0:
                continue
            gap = abs(totals[i] - totals[j]) + 0.5 * (queues[i] + queues[j])
            spread_term += p_i * p_j * gap / rtt_base
    return min(MAX_RETX_FRACTION, BETA * spread_term)
