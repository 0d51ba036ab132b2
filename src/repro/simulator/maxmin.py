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

Start regime. Progressive filling runs in one of two regimes, and each
fill picks where it starts by its demand count alone. The regime also
picks how the fill is compacted and how its loads are summed:

* **Vectorized rounds** (:func:`_array_fill`, fills of
  :data:`_HEAP_START_DEMANDS` demands or more): the rows are compacted
  to the links they cross (``np.unique`` and its inverse, which keep the
  links' relative order) into a CSR, bottleneck search is one
  ``argmin`` over the link arrays and each round's capacity/weight
  updates are batched ``np.add.at`` scatters
  (:func:`_vectorized_fill`). A round costs O(L) numpy work plus ~100 µs
  of fixed setup per call, which pays off when a round freezes a whole
  symmetric tie batch of demands. Once rounds stop batching, the fill
  hands its state to the heap loop. Loads are one ``np.add.at`` scatter.
* **The lazy heap** (:func:`_progressive_fill_tail`): O(log L) Python
  work per freeze and no O(L) passes. Small fills — the network's
  typical region fill is a few demands — and every fill with pinned
  demands enter it at round 0 (:func:`_heap_fill`): links are renumbered
  in order of first appearance, one capacity gather is the only numpy
  call, and loads are summed in Python lists.

Both regimes freeze the same exact tie batch per round, members in
ascending demand order, with the same float operations per link, so the
start regime changes neither rates, ``iterations`` nor saturation
shares; both sum each link's load in ascending demand order, so loads
agree bit for bit too.
The choice is a cost model, not a semantic switch. Starting every fill
on the heap loses on large fills, where one vectorized round freezes
hundreds of tied demands at once.

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

#: Hybrid switch: after this many consecutive filling rounds that each froze
#: fewer than :data:`_SMALL_ROUND` demands, the vectorized loop hands the
#: remainder to the lazy-heap tail (see :func:`_progressive_fill_tail`).
_TAIL_SWITCH_ROUNDS = 4
_SMALL_ROUND = 8

#: Start-regime switch: fills of fewer demands than this run on the lazy
#: heap from round 0 (see the module docstring).
_HEAP_START_DEMANDS = 64


class Allocation(NamedTuple):
    """One fill's result (see :func:`maxmin_allocate_indexed`)."""

    #: per-demand rate (bits/s), in row order.
    rates: List[float]
    #: progressive-filling rounds.
    iterations: int
    #: global id of every link some row crosses, each once (a numpy
    #: array from a vectorized fill, a list from the heap).
    links: Sequence[int]
    #: each of those links' summed demand rates, aligned with ``links``.
    loads: Sequence[float]
    #: each of those links' saturation share, aligned with ``links``: the
    #: level of the round it tied in, ``inf`` if it never did.
    saturation: Sequence[float]
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

    Fills of fewer than :data:`_HEAP_START_DEMANDS` demands, and every
    fill with ``levels``, run on the lazy heap from round 0 in Python
    lists (:func:`_heap_fill`); larger ones compact to a CSR and start
    vectorized (:func:`_array_fill`). Both produce bit-identical rates,
    iteration counts, loads and saturation shares (see the module
    docstring).

    Inputs are trusted (the wrapper and the network validate at indexing
    time); an infeasible state still raises :class:`SimulationError`.
    """
    n = len(rows)
    if n == 0:
        return Allocation([], 0, [], [], [])
    if n < _HEAP_START_DEMANDS or levels is not None:
        return _heap_fill(rows, weights, capacities, levels, anchored)
    return _array_fill(rows, weights, capacities)


def _heap_fill(
    rows: Sequence[Sequence[int]],
    weights: Sequence[float],
    capacities: np.ndarray,
    levels: Optional[Sequence[float]] = None,
    anchored: Sequence[int] = (),
) -> Allocation:
    """The whole fill on the lazy heap, with its state built in O(nnz).

    Links are renumbered densely in order of first appearance, so a fill
    over a few links of a large capacity array never walks the rest of
    it. The heap loop is indifferent to link numbering: a round freezes
    its whole tie batch, members in ascending demand order, whichever
    tied link pops first. Each link's live weight accumulates in
    ascending demand order, the order ``np.add.at`` uses in
    :func:`_vectorized_fill`, and so does each link's load (a link's
    member list is in ascending demand order).
    """
    n = len(rows)
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
    sat = [_INF] * len(links)
    contradicted: List[int] = []
    iterations = _progressive_fill_tail(
        rem, lw, crossed, weights, members, [True] * n, out, n, 0,
        sat, levels, anchored, contradicted,
    )
    loads: List[float] = []
    for link_members in members:
        load = 0.0
        for j in link_members:
            load += out[j]
        loads.append(load)
    return Allocation(out, iterations, links, loads, sat, contradicted)


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The ascending distinct values of an integer array: ``np.unique``.

    A bare ``np.unique`` on integers takes numpy's hash path, which at a
    few hundred ids or more costs several times a sort plus a neighbour
    mask; this takes the sort path and returns the same array.
    """
    ordered = np.sort(ids)
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _array_fill(
    rows: Sequence[Sequence[int]],
    weights: Sequence[float],
    capacities: np.ndarray,
) -> Allocation:
    """Compact the rows to the links they cross, then :func:`_vectorized_fill`.

    ``np.unique`` sorts the crossed links, so the compacted numbering
    keeps their relative order and bottleneck selection and heap
    tie-breaking pick the same links as over the whole array. Loads are
    one ``np.add.at`` scatter, which accumulates repeated links in
    ascending demand order.
    """
    n = len(rows)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
    # The inverse is ``searchsorted(links, flat)``. Asking for it also puts
    # ``np.unique`` on its sort path, several times faster here than the
    # hash path a bare ``np.unique`` takes on integers.
    links, indices = np.unique(flat, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    rates, iterations, sat = _vectorized_fill(
        indices, indptr, np.asarray(weights, dtype=float), capacities[links]
    )
    loads = np.zeros(links.size, dtype=float)
    np.add.at(loads, indices, np.repeat(rates, lengths))
    return Allocation(rates.tolist(), iterations, links, loads, sat)


def _vectorized_fill(
    indices: np.ndarray,
    indptr: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Vectorized rounds first, the lazy heap once rounds stop batching.

    ``indices``/``indptr`` are a CSR over the compacted link numbering
    (demand ``j`` crosses ``indices[indptr[j]:indptr[j + 1]]``) and
    ``capacities`` is aligned with that numbering. Returns ``(rates,
    iterations, saturation)``, the last aligned with ``capacities``.
    """
    n = int(indptr.shape[0]) - 1
    num_links = int(capacities.shape[0])

    # Demand owning each nonzero, and the link -> member-demands CSR
    # transpose. The stable sort keeps members in ascending demand order,
    # which keeps the freeze-update arithmetic in the same sequence as the
    # reference implementation (bit-for-bit equal subtraction order).
    demand_of = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    link_members = demand_of[order]
    link_ptr = np.zeros(num_links + 1, dtype=np.intp)
    np.cumsum(np.bincount(indices, minlength=num_links), out=link_ptr[1:])

    remaining = capacities.astype(float, copy=True)
    live_weight = np.zeros(num_links, dtype=float)
    np.add.at(live_weight, indices, weights[demand_of])

    rates = np.zeros(n, dtype=float)
    active = np.ones(n, dtype=bool)
    sat = np.full(num_links, _INF)
    unfrozen = n
    iterations = 0
    small_rounds = 0

    # Progressive filling, in two regimes. The vectorized loop below does an
    # O(L) numpy bottleneck search per round and freezes *every* link tied at
    # the minimum share in one batch. Ties are exact in exact arithmetic
    # (removing a frozen demand from a tied link leaves its share unchanged:
    # rem - w*s over lw - w equals s when rem = s*lw), so batching is
    # faithful to sequential filling — and in symmetric fabrics it collapses
    # hundreds of one-bottleneck rounds into a handful. Once the symmetric
    # waves are exhausted the remaining bottlenecks have distinct shares and
    # each round freezes one or two demands, so per-round numpy dispatch
    # overhead dominates; after _TAIL_SWITCH_ROUNDS such rounds the loop
    # hands the remainder to the lazy-heap tail, which does O(log L) work
    # per event with no O(L) passes. Each demand is frozen exactly once, so
    # the update work totals O(nnz) across the whole call either way.
    with np.errstate(divide="ignore", invalid="ignore"):
        while unfrozen > 0:
            iterations += 1
            share = np.where(live_weight > _EPSILON, remaining / live_weight, np.inf)
            bottleneck = int(np.argmin(share))
            best_share = share[bottleneck]
            if not np.isfinite(best_share):
                raise SimulationError("no bottleneck found with demands outstanding")
            tied = np.nonzero(share == best_share)[0]
            best_share = max(float(best_share), 0.0)
            sat[tied] = best_share
            if tied.size == 1:
                # One link's members are ascending and unique already.
                members = link_members[link_ptr[bottleneck] : link_ptr[bottleneck + 1]]
                members = members[active[members]]
            else:
                members = np.concatenate(
                    [link_members[link_ptr[b] : link_ptr[b + 1]] for b in tied]
                )
                members = sorted_unique(members[active[members]])
            if members.size:
                frozen = weights[members] * best_share
                rates[members] = frozen
                active[members] = False
                unfrozen -= int(members.size)
                # Gather every nonzero position of the frozen demands (in
                # ascending demand order) and scatter the updates in one shot.
                starts = indptr[members]
                lens = indptr[members + 1] - starts
                total = int(lens.sum())
                offsets = np.cumsum(lens) - lens
                positions = (
                    np.arange(total, dtype=np.intp)
                    - np.repeat(offsets, lens)
                    + np.repeat(starts, lens)
                )
                touched = indices[positions]
                np.add.at(remaining, touched, -np.repeat(frozen, lens))
                np.add.at(live_weight, touched, -np.repeat(weights[members], lens))
            remaining[tied] = 0.0
            live_weight[tied] = 0.0
            np.maximum(remaining, 0.0, out=remaining)
            small_rounds = small_rounds + 1 if members.size < _SMALL_ROUND else 0
            if small_rounds >= _TAIL_SWITCH_ROUNDS and unfrozen > 0:
                out = rates.tolist()
                shares = sat.tolist()
                left = live_weight.tolist()
                act = active.tolist()
                # The tail reads the links of demands still unfrozen and
                # the members of links still carrying live weight only.
                flat, ptr = indices.tolist(), indptr.tolist()
                member_flat, member_ptr = link_members.tolist(), link_ptr.tolist()
                crossed = [flat[ptr[j] : ptr[j + 1]] if act[j] else [] for j in range(n)]
                members = [
                    member_flat[member_ptr[k] : member_ptr[k + 1]] if left[k] > _EPSILON else []
                    for k in range(num_links)
                ]
                iterations = _progressive_fill_tail(
                    remaining.tolist(),
                    left,
                    crossed,
                    weights.tolist(),
                    members,
                    act,
                    out,
                    unfrozen,
                    iterations,
                    shares,
                )
                rates[:] = out
                sat[:] = shares
                return rates, iterations, sat

    return rates, iterations, sat


def _progressive_fill_tail(
    rem: List[float],
    lw: List[float],
    crossed: List[List[int]],
    wts: Sequence[float],
    members: List[List[int]],
    act: List[bool],
    out: List[float],
    unfrozen: int,
    iterations: int,
    sat: List[float],
    levels: Optional[Sequence[float]] = None,
    anchored: Sequence[int] = (),
    contradicted: Optional[List[int]] = None,
) -> int:
    """Progressive filling with a lazy-deletion min-heap, in place.

    The one heap loop, entered at round 0 by :func:`_heap_fill` or
    mid-fill by :func:`_vectorized_fill` once its rounds stop batching.
    State is plain lists: per-link remaining capacity ``rem`` and live
    weight ``lw``, each demand's links ``crossed``, per-demand weights
    ``wts``, each link's member demands ``members`` (in ascending demand
    order), the per-demand ``act`` flags and rates ``out`` and the per-link
    saturation shares ``sat``, which it updates. ``levels`` and
    ``anchored`` pin demands (see :func:`maxmin_allocate_indexed`); each
    contradicted pinned demand is appended to ``contradicted``. Returns
    the running ``iterations`` count.

    Shares are monotone: freezing a demand never lowers any other link's
    share (share' = s_l + w * (s_l - s) / (lw - w) >= s_l since s is the
    round minimum), so a heap entry's key is always <= the link's current
    share and a stale pop can simply be re-pushed with the refreshed key.
    Each pop/freeze touches O(path length * log L) Python-level work with
    no O(L) array passes — cheaper than numpy dispatch when rounds freeze
    one or two demands each, or when the whole fill is a handful of
    demands.

    Each round pops a verified-fresh bottleneck, then drains every other
    link whose *refreshed* share ties it exactly (a popped key <= the
    round share is only a lower bound; the refresh either proves the tie
    or re-pushes). The whole tie batch freezes before any capacity is
    subtracted, members in ascending demand order — the same tie set, the
    same freeze values, and the same subtraction sequence as one round of
    the vectorized loop. That exactness is load-bearing beyond the
    handoff being seamless: it makes the allocation invariant to how
    demands are grouped into fills (combined, per-component, or one
    bottleneck region with its boundary pinned), because a tie spanning
    several groups resolves to the identical floats no matter which fill
    processes each side. Sequential tie handling here — freeze one link,
    subtract, recompute the next tied link's share — perturbs the tied
    partners by an ULP through the recomputed division, and *when* ties
    reach the tail depends on global round structure, so the perturbation
    would differ between a combined fill and its decomposition.

    An anchored demand ``j`` enters the heap as one more entry, keyed by
    its pinned level and named ``~j`` (negative, so it never collides
    with a link): the outside link that froze it, which freezes it in the
    round at that level, in the same tie batch as every fill link that
    saturates there.
    """
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
                    contradicted.append(j)  # type: ignore[union-attr]
            wj = wts[j]
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
    return iterations


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
    incremental-vs-full oracle uses this as its independent recount, and
    the string-keyed :func:`link_utilizations` wraps it for external
    callers.
    """
    load = np.zeros(num_links, dtype=float)
    if len(rows):
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
        np.add.at(load, flat, np.repeat(np.asarray(rates, dtype=float), lengths))
    return load


def link_utilizations(
    demands: Sequence[Demand],
    rates: Sequence[float],
    capacities: Dict[LinkId, float],
) -> Dict[LinkId, float]:
    """Per-link utilization in [0, 1] given an allocation.

    String-keyed wrapper over :func:`link_loads_indexed`; every link
    crossed by any demand appears in the result (zero-load links at 0.0),
    matching the historical contract.
    """
    if not demands:
        return {}
    used_links: Dict[LinkId, int] = {}
    rows = [
        [used_links.setdefault(link, len(used_links)) for link in links]
        for links, _ in demands
    ]
    load = link_loads_indexed(rows, rates, len(used_links))
    return {
        link: float(load[index]) / capacities[link]
        for link, index in used_links.items()
    }
