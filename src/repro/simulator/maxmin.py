"""Weighted max-min fair bandwidth allocation by progressive filling.

Given demands (each a set of directed links plus a weight) and per-link
capacities, progressively raise every unfrozen demand's rate in proportion
to its weight until some link saturates; freeze the demands on that link and
repeat. This is the textbook water-filling algorithm (Boudec's tutorial,
paper reference [11]) and yields the unique weighted max-min allocation.

Weights exist for TeXCP-style striping, where one agent deliberately sends
unequal shares down different paths; every single-path scheduler uses
weight 1.0.

The allocator runs after every flow arrival/completion/reroute, so it is
the simulator's hot loop. Every fill goes through
:func:`maxmin_allocate_indexed`: demands arrive as plain rows of global
link ids over a persistent
:class:`~repro.simulator.linkindex.LinkIndex`, and one call returns the
rates together with the new load of every link the rows cross, so the
network splices loads without a second pass over the demands, and each
crossed link's saturation share: the level of the round it tied in,
which the network keeps per link to pin the boundary of its next
bottleneck-region fill (see :func:`maxmin_allocate_indexed`). The
string-keyed :func:`maxmin_allocate` signature survives as a thin wrapper
that interns links per call, and :func:`maxmin_allocate_reference`
preserves the pre-index implementation verbatim as the
equivalence/benchmark baseline.

One loop. Every fill runs progressive filling on a lazy-deletion
min-heap of link shares, in plain Python lists: O(nnz) setup with one
capacity gather as its only numpy call, then O(log L) work per freeze
and no O(L) pass per round, which suits the network's typical fill, a
bottleneck region of a few demands. Rates, loads and saturation shares
do not depend on how demands are grouped into fills, and the loads
equal a from-scratch recount (:func:`link_loads_indexed`) bit for bit
(see :func:`maxmin_allocate_indexed`).

Demands are assumed loop-free (no demand crosses the same directed link
twice) — true for every path the topology generators emit.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.simulator.linkindex import LinkIndex  # noqa: F401  (re-export)

#: A directed link identifier (u, v).
LinkId = Tuple[str, str]

#: One demand: the links it traverses and its weight.
Demand = Tuple[Sequence[LinkId], float]

_EPSILON = 1e-9
_INF = float("inf")


class Allocation(NamedTuple):
    """One fill's result (see :func:`maxmin_allocate_indexed`)."""

    #: per-demand rate (bits/s), in row order.
    rates: List[float]
    #: progressive-filling rounds.
    iterations: int
    #: global id of every link some row crosses, each once, in order of
    #: first appearance.
    links: List[int]
    #: each of those links' summed demand rates, aligned with ``links``.
    loads: List[float]
    #: each of those links' saturation share, aligned with ``links``: the
    #: level of the round it tied in, ``inf`` if it never did.
    saturation: List[float]
    #: the pinned demands the fill froze at a level other than their pin,
    #: in freeze order (always empty for a fill without ``levels``).
    contradicted: Sequence[int] = ()


def maxmin_allocate_indexed(
    rows: Sequence[Sequence[int]],
    weights: Sequence[float],
    capacities: np.ndarray,
    levels: Optional[Sequence[float]] = None,
    anchored: Sequence[int] = (),
) -> Allocation:
    """Progressive filling over demands given as rows of global link ids.

    Demand ``j`` crosses the link ids ``rows[j]`` and has weight
    ``weights[j]``; ``capacities`` is the dense per-link-id capacity array
    of the whole network (links no row crosses are never read). Returns an
    :class:`Allocation`: the per-demand ``rates`` in bits/s,
    ``iterations`` (filling rounds, one per saturated bottleneck batch —
    the number the network's :meth:`perf_stats` telemetry accumulates),
    the crossed ``links``, each one's ``load`` and each one's
    ``saturation`` share. Loads accumulate in ascending demand order, the
    order :func:`link_loads_indexed` uses, so they equal a from-scratch
    recount bit for bit.

    ``levels`` pins demands, for the network's bottleneck-region fill:
    ``levels[j]`` is the level pinned demand ``j`` froze at in the fill
    that last covered it, and ``inf`` leaves demand ``j`` free. The
    pinned demands listed in ``anchored`` have a bottleneck outside the
    rows at that level, so the fill freezes each at its level unless one
    of its rows' links freezes it first; a pinned demand that is not
    anchored freezes only where its links saturate. A pinned demand
    frozen at any other level than its pin is *contradicted*: the fill
    still runs to the end and lists it in ``contradicted``.

    The links are renumbered densely in order of first appearance, so a
    fill over a few links of a large capacity array never walks the rest
    of it, and the fill runs on a lazy-deletion min-heap of link shares.
    Shares are monotone: freezing a demand never lowers any other link's
    share (share' = s_l + w * (s_l - s) / (lw - w) >= s_l since s is the
    round minimum), so a heap entry's key is always <= the link's current
    share and a stale pop can simply be re-pushed with the refreshed key.

    Each round pops a verified-fresh bottleneck, then drains every other
    link whose *refreshed* share ties it exactly (a popped key <= the
    round share is only a lower bound; the refresh either proves the tie
    or re-pushes). The whole tie batch freezes before any capacity is
    subtracted, members in ascending demand order. That makes the
    allocation invariant to how demands are grouped into fills
    (combined, per-component, or one bottleneck region with its boundary
    pinned), because a tie spanning several groups resolves to the
    identical floats no matter which fill processes each side.
    Sequential tie handling — freeze one link, subtract, recompute the
    next tied link's share — perturbs the tied partners by an ULP
    through the recomputed division, and the perturbation would differ
    between a combined fill and its decomposition.

    An anchored demand ``j`` enters the heap as one more entry, keyed by
    its pinned level and named ``~j`` (negative, so it never collides
    with a link): the outside link that froze it, which freezes it in the
    round at that level, in the same tie batch as every fill link that
    saturates there.

    Inputs are trusted (the wrapper and the network validate at indexing
    time); an infeasible state still raises :class:`SimulationError`.
    """
    n = len(rows)
    # Each link's live weight and member list accumulate in ascending
    # demand order, and so does its load below.
    local: Dict[int, int] = {}
    links: List[int] = []
    lw: List[float] = []
    members: List[List[int]] = []
    crossed: List[List[int]] = []
    for j in range(n):
        wj = weights[j]
        row = []
        for link in rows[j]:
            k = local.get(link)
            if k is None:
                k = local[link] = len(links)
                links.append(link)
                lw.append(wj)
                members.append([j])
            else:
                lw[k] += wj
                members[k].append(j)
            row.append(k)
        crossed.append(row)
    rem = capacities[links].tolist()
    out = [0.0] * n
    act = [True] * n
    sat = [_INF] * len(links)
    contradicted: List[int] = []
    unfrozen = n
    iterations = 0
    heap = [(rem[b] / lw[b], b) for b in range(len(lw)) if lw[b] > _EPSILON]
    if anchored:
        heap += [(levels[j], ~j) for j in anchored]  # type: ignore[index]
    heapq.heapify(heap)
    while unfrozen > 0:
        if not heap:
            raise SimulationError("no bottleneck found with demands outstanding")
        share, b = heapq.heappop(heap)
        if b < 0:
            if not act[~b]:
                continue  # a fill link froze the anchored demand first
            current = share
            tied: List[int] = []
            pinned = [~b]
        else:
            weight = lw[b]
            if weight <= _EPSILON:
                continue  # stale: the link froze (or emptied) since this push
            current = rem[b] / weight
            if current > share:
                heapq.heappush(heap, (current, b))  # stale key; retry with fresh
                continue
            tied = [b]
            pinned = []
        # Drain the exact tie batch: every remaining key <= current is a
        # candidate (true shares never sit below their keys), and the
        # refresh sorts each into "ties exactly" or "actually higher".
        while heap and heap[0][0] <= current:
            _, other = heapq.heappop(heap)
            if other < 0:
                if act[~other]:
                    pinned.append(~other)
                continue
            if lw[other] <= _EPSILON:
                continue
            refreshed = rem[other] / lw[other]
            if refreshed == current:
                tied.append(other)
            else:
                heapq.heappush(heap, (refreshed, other))
        if current < 0.0:
            current = 0.0
        iterations += 1
        for link in tied:
            sat[link] = current
        if len(tied) + len(pinned) > 1:
            frozen = sorted(
                {j for link in tied for j in members[link] if act[j]}.union(pinned)
            )
        elif tied:
            frozen = [j for j in members[b] if act[j]]
        else:
            frozen = pinned
        for j in frozen:
            if levels is not None:
                pin = levels[j]
                if pin != current and pin < _INF:
                    contradicted.append(j)
            wj = weights[j]
            rate = wj * current
            out[j] = rate
            act[j] = False
            unfrozen -= 1
            for link in crossed[j]:
                left = rem[link] - rate
                rem[link] = left if left > 0.0 else 0.0
                lw[link] -= wj
        for link in tied:
            rem[link] = 0.0
            lw[link] = 0.0
    loads: List[float] = []
    for link_members in members:
        load = 0.0
        for j in link_members:
            load += out[j]
        loads.append(load)
    return Allocation(out, iterations, links, loads, sat, contradicted)


def _intern_demands(
    demands: Sequence[Demand],
    capacities: Dict[LinkId, float],
) -> Tuple[List[List[int]], List[float], np.ndarray]:
    """Validate string-keyed demands: ``(rows, weights, capacities)``.

    Links are interned in order of first appearance (matching the
    reference implementation) into the rows' local numbering, which the
    returned capacity array follows; duplicate links within one demand
    collapse to a single crossing, preserving the reference's
    buffered-update semantics.
    """
    used_links: Dict[LinkId, int] = {}
    rows: List[List[int]] = []
    weights: List[float] = []
    for j, (links, weight) in enumerate(demands):
        if not links:
            raise SimulationError(f"demand {j} traverses no links")
        if weight <= 0:
            raise SimulationError(f"demand {j} has non-positive weight {weight}")
        weights.append(float(weight))
        seen: Dict[int, None] = {}
        for link in links:
            if link not in capacities:
                raise SimulationError(f"demand {j} uses unknown link {link}")
            index = used_links.get(link)
            if index is None:
                index = len(used_links)
                used_links[link] = index
            seen.setdefault(index)
        rows.append(list(seen))
    caps = np.empty(len(used_links), dtype=float)
    for link, index in used_links.items():
        cap = capacities[link]
        if cap <= 0:
            raise SimulationError(f"link {link} in use has non-positive capacity {cap}")
        caps[index] = cap
    return rows, weights, caps


def maxmin_allocate(
    demands: Sequence[Demand],
    capacities: Dict[LinkId, float],
) -> List[float]:
    """Rates (bits/s) for each demand under weighted max-min fairness.

    Compatibility wrapper over :func:`maxmin_allocate_indexed`: interns the
    links per call into rows, then runs the indexed allocator. Demands
    traversing no links are rejected — every real flow crosses at least
    its host access link. Unknown links or non-positive capacities and
    weights raise :class:`SimulationError`.
    """
    rows, weights, caps = _intern_demands(demands, capacities)
    return maxmin_allocate_indexed(rows, weights, caps).rates


def maxmin_allocate_reference(
    demands: Sequence[Demand],
    capacities: Dict[LinkId, float],
) -> List[float]:
    """The pre-index string-keyed implementation, kept verbatim.

    Serves two jobs: the oracle for the randomized equivalence suite and
    the baseline for ``bench_perf_allocator``'s speedup measurement. Do
    not optimize this function.
    """
    n = len(demands)
    if n == 0:
        return []

    # Index the links actually in use; the demand/link scan below is O(nnz).
    used_links: Dict[LinkId, int] = {}
    demand_links: List[np.ndarray] = []
    link_members: List[List[int]] = []
    weights = np.empty(n, dtype=float)
    for j, (links, weight) in enumerate(demands):
        if not links:
            raise SimulationError(f"demand {j} traverses no links")
        if weight <= 0:
            raise SimulationError(f"demand {j} has non-positive weight {weight}")
        weights[j] = weight
        indices = []
        for link in links:
            if link not in capacities:
                raise SimulationError(f"demand {j} uses unknown link {link}")
            index = used_links.get(link)
            if index is None:
                index = len(used_links)
                used_links[link] = index
                link_members.append([])
            indices.append(index)
            link_members[index].append(j)
        demand_links.append(np.asarray(indices, dtype=np.intp))

    num_links = len(used_links)
    remaining = np.empty(num_links, dtype=float)
    for link, index in used_links.items():
        cap = capacities[link]
        if cap <= 0:
            raise SimulationError(f"link {link} in use has non-positive capacity {cap}")
        remaining[index] = cap

    live_weight = np.zeros(num_links, dtype=float)
    for j, indices in enumerate(demand_links):
        live_weight[indices] += weights[j]

    rates = np.zeros(n, dtype=float)
    active = np.ones(n, dtype=bool)
    unfrozen = n

    while unfrozen > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(live_weight > _EPSILON, remaining / live_weight, np.inf)
        bottleneck = int(np.argmin(share))
        best_share = share[bottleneck]
        if not np.isfinite(best_share):
            raise SimulationError("no bottleneck found with demands outstanding")
        best_share = max(float(best_share), 0.0)
        for j in link_members[bottleneck]:
            if not active[j]:
                continue
            rate = weights[j] * best_share
            rates[j] = rate
            active[j] = False
            unfrozen -= 1
            indices = demand_links[j]
            remaining[indices] -= rate
            live_weight[indices] -= weights[j]
        remaining[bottleneck] = 0.0
        live_weight[bottleneck] = 0.0
        np.maximum(remaining, 0.0, out=remaining)

    return rates.tolist()


def link_loads_indexed(
    rows: Sequence[Sequence[int]],
    rates: Sequence[float],
    num_links: int,
) -> np.ndarray:
    """Dense per-link-id load (bits/s) for an allocation, recounted from scratch.

    Demand ``j`` adds ``rates[j]`` to every link id in ``rows[j]``. One
    ``np.add.at`` scatter accumulates repeated ids in array order, which
    is ascending demand order — the order :func:`maxmin_allocate_indexed`
    sums its loads in, so the two agree bit for bit. The
    incremental-vs-full oracle uses this as its independent recount.
    """
    load = np.zeros(num_links, dtype=float)
    if len(rows):
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
        np.add.at(load, flat, np.repeat(np.asarray(rates, dtype=float), lengths))
    return load
