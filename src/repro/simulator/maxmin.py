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
the simulator's hot loop. The fast path is :func:`maxmin_allocate_indexed`:
demands arrive as CSR-style integer arrays over a persistent
:class:`~repro.simulator.linkindex.LinkIndex`. The string-keyed
:func:`maxmin_allocate` signature survives as a thin wrapper that interns
links per call, and :func:`maxmin_allocate_reference` preserves the
pre-index implementation verbatim as the equivalence/benchmark baseline.

Start regime. Progressive filling runs in one of two regimes, and each
fill picks where it starts by its demand count alone:

* **Vectorized rounds** (:func:`_vectorized_fill`, fills of
  :data:`_HEAP_START_DEMANDS` demands or more): bottleneck search is one
  ``argmin`` over the link arrays and each round's capacity/weight
  updates are batched ``np.add.at`` scatters. A round costs O(L) numpy
  work plus ~100 µs of fixed setup per call, which pays off when a
  round freezes a whole symmetric tie batch of demands. Once rounds stop
  batching, the fill hands its state to the heap loop.
* **The lazy heap** (:func:`_progressive_fill_tail`): O(log L) Python
  work per freeze and no O(L) passes. Small fills — the incremental
  reallocator's typical dirty component holds a handful of flows — enter
  it at round 0 (:func:`_heap_fill`, state built from the CSR in
  O(nnz)), skipping the vectorized setup entirely.

Both regimes freeze the same exact tie batch per round, members in
ascending demand order, with the same float operations per link, so the
start regime changes neither rates nor ``iterations``: the choice is a
cost model, not a semantic switch. Starting every fill on the heap loses
on large fills, where one vectorized round freezes hundreds of tied
demands at once.

Demands are assumed loop-free (no demand crosses the same directed link
twice) — true for every path the topology generators emit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.simulator.linkindex import LinkIndex  # noqa: F401  (re-export)

#: A directed link identifier (u, v).
LinkId = Tuple[str, str]

#: One demand: the links it traverses and its weight.
Demand = Tuple[Sequence[LinkId], float]

_EPSILON = 1e-9

#: Hybrid switch: after this many consecutive filling rounds that each froze
#: fewer than :data:`_SMALL_ROUND` demands, the vectorized loop hands the
#: remainder to the lazy-heap tail (see :func:`_progressive_fill_tail`).
_TAIL_SWITCH_ROUNDS = 4
_SMALL_ROUND = 8

#: Start-regime switch: fills of fewer demands than this run on the lazy
#: heap from round 0 (see the module docstring).
_HEAP_START_DEMANDS = 64


def maxmin_allocate_indexed(
    indices: np.ndarray,
    indptr: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Progressive filling over pre-indexed demands.

    ``indices``/``indptr`` are a CSR encoding of the demand x link
    incidence: demand ``j`` crosses link ids
    ``indices[indptr[j]:indptr[j + 1]]``. ``weights`` is per demand and
    ``capacities`` is the dense per-link-id capacity array (links not
    crossed by any demand are ignored). Returns ``(rates, iterations)``
    where ``rates`` is the per-demand allocation in bits/s and
    ``iterations`` counts filling rounds (one per saturated bottleneck
    batch) — the number the network's :meth:`perf_stats` telemetry
    accumulates.

    Fills of fewer than :data:`_HEAP_START_DEMANDS` demands run on the
    lazy heap from round 0 (:func:`_heap_fill`); larger ones start
    vectorized (:func:`_vectorized_fill`). Both produce bit-identical
    rates and iteration counts (see the module docstring).

    Inputs are trusted (the wrapper and the network validate at indexing
    time); an infeasible state still raises :class:`SimulationError`.
    """
    n = int(indptr.shape[0]) - 1
    if n <= 0:
        return np.zeros(0, dtype=float), 0
    if n < _HEAP_START_DEMANDS:
        return _heap_fill(indices, indptr, weights, capacities)
    return _vectorized_fill(indices, indptr, weights, capacities)


def _heap_fill(
    indices: np.ndarray,
    indptr: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """The whole fill on the lazy heap, with its state built in O(nnz).

    Links are renumbered densely in order of first appearance, so a fill
    over a few links of a large capacity array never walks the rest of
    it. The heap loop is indifferent to link numbering: a round freezes
    its whole tie batch, members in ascending demand order, whichever
    tied link pops first. Each link's live weight accumulates in
    ascending demand order, the order ``np.add.at`` uses in
    :func:`_vectorized_fill`.
    """
    n = int(indptr.shape[0]) - 1
    flat = indices.tolist()
    ptr = indptr.tolist()
    wts = weights.tolist()
    caps = capacities[indices].astype(float, copy=False).tolist()
    local: Dict[int, int] = {}
    rem: List[float] = []
    lw: List[float] = []
    members: List[List[int]] = []
    for j in range(n):
        wj = wts[j]
        for pos in range(ptr[j], ptr[j + 1]):
            k = local.get(flat[pos])
            if k is None:
                k = local[flat[pos]] = len(rem)
                rem.append(caps[pos])
                lw.append(0.0)
                members.append([])
            lw[k] += wj
            members[k].append(j)
            flat[pos] = k
    members_flat: List[int] = []
    members_ptr = [0]
    for link_members in members:
        members_flat.extend(link_members)
        members_ptr.append(len(members_flat))
    out = [0.0] * n
    iterations = _progressive_fill_tail(
        rem, lw, flat, ptr, wts, members_flat, members_ptr, [True] * n, out, n, 0
    )
    return np.array(out, dtype=float), iterations


def _vectorized_fill(
    indices: np.ndarray,
    indptr: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Vectorized rounds first, the lazy heap once rounds stop batching."""
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
            if tied.size == 1:
                members = link_members[link_ptr[bottleneck] : link_ptr[bottleneck + 1]]
            else:
                members = np.concatenate(
                    [link_members[link_ptr[b] : link_ptr[b + 1]] for b in tied]
                )
            members = members[active[members]]
            if members.size:
                members = np.unique(members)
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
                iterations = _progressive_fill_tail(
                    remaining.tolist(),
                    live_weight.tolist(),
                    indices.tolist(),
                    indptr.tolist(),
                    weights.tolist(),
                    link_members.tolist(),
                    link_ptr.tolist(),
                    active.tolist(),
                    out,
                    unfrozen,
                    iterations,
                )
                rates[:] = out
                return rates, iterations

    return rates, iterations


def _progressive_fill_tail(
    rem: List[float],
    lw: List[float],
    flat: List[int],
    ptr: List[int],
    wts: List[float],
    members_flat: List[int],
    members_ptr: List[int],
    act: List[bool],
    out: List[float],
    unfrozen: int,
    iterations: int,
) -> int:
    """Progressive filling with a lazy-deletion min-heap, in place.

    The one heap loop, entered at round 0 by :func:`_heap_fill` or
    mid-fill by :func:`_vectorized_fill` once its rounds stop batching.
    State is plain lists: per-link remaining capacity ``rem`` and live
    weight ``lw``, the demand -> links CSR ``flat``/``ptr``, per-demand
    weights ``wts``, the link -> member-demands CSR
    ``members_flat``/``members_ptr`` (ascending demand order per link),
    and the per-demand ``act`` flags and rates ``out``, which it updates.
    Returns the running ``iterations`` count.

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
    demands are grouped into fills (combined, per-dirty-subset, or
    per-component), because a tie spanning several
    components resolves to the identical floats no matter which fill
    processes each side. Sequential tie handling here — freeze one link,
    subtract, recompute the next tied link's share — perturbs the tied
    partners by an ULP through the recomputed division, and *when* ties
    reach the tail depends on global round structure, so the perturbation
    would differ between a combined fill and its decomposition.
    """
    heap = [(rem[b] / lw[b], b) for b in range(len(lw)) if lw[b] > _EPSILON]
    heapq.heapify(heap)
    while unfrozen > 0:
        if not heap:
            raise SimulationError("no bottleneck found with demands outstanding")
        share, b = heapq.heappop(heap)
        weight = lw[b]
        if weight <= _EPSILON:
            continue  # stale: the link froze (or emptied) since this push
        current = rem[b] / weight
        if current > share:
            heapq.heappush(heap, (current, b))  # stale key; retry with fresh
            continue
        # Drain the exact tie batch: every remaining key <= current is a
        # candidate (true shares never sit below their keys), and the
        # refresh sorts each into "ties exactly" or "actually higher".
        tied = [b]
        while heap and heap[0][0] <= current:
            _, other = heapq.heappop(heap)
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
        if len(tied) > 1:
            members = sorted(
                {
                    j
                    for link in tied
                    for j in members_flat[members_ptr[link] : members_ptr[link + 1]]
                    if act[j]
                }
            )
        else:
            members = [
                j
                for j in members_flat[members_ptr[b] : members_ptr[b + 1]]
                if act[j]
            ]
        for j in members:
            wj = wts[j]
            rate = wj * current
            out[j] = rate
            act[j] = False
            unfrozen -= 1
            for link in flat[ptr[j] : ptr[j + 1]]:
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate string-keyed demands and build the CSR arrays.

    Links are interned in order of first appearance (matching the
    reference implementation); duplicate links within one demand collapse
    to a single crossing, preserving the reference's buffered-update
    semantics.
    """
    n = len(demands)
    used_links: Dict[LinkId, int] = {}
    weights = np.empty(n, dtype=float)
    flat: List[int] = []
    indptr = np.zeros(n + 1, dtype=np.intp)
    for j, (links, weight) in enumerate(demands):
        if not links:
            raise SimulationError(f"demand {j} traverses no links")
        if weight <= 0:
            raise SimulationError(f"demand {j} has non-positive weight {weight}")
        weights[j] = weight
        seen: Dict[int, None] = {}
        for link in links:
            if link not in capacities:
                raise SimulationError(f"demand {j} uses unknown link {link}")
            index = used_links.get(link)
            if index is None:
                index = len(used_links)
                used_links[link] = index
            seen.setdefault(index)
        flat.extend(seen)
        indptr[j + 1] = len(flat)
    caps = np.empty(len(used_links), dtype=float)
    for link, index in used_links.items():
        cap = capacities[link]
        if cap <= 0:
            raise SimulationError(f"link {link} in use has non-positive capacity {cap}")
        caps[index] = cap
    indices = np.asarray(flat, dtype=np.intp)
    return indices, indptr, weights, caps


def maxmin_allocate(
    demands: Sequence[Demand],
    capacities: Dict[LinkId, float],
) -> List[float]:
    """Rates (bits/s) for each demand under weighted max-min fairness.

    Compatibility wrapper over :func:`maxmin_allocate_indexed`: interns the
    links per call, then runs the vectorized core. Demands traversing no
    links are rejected — every real flow crosses at least its host access
    link. Unknown links or non-positive capacities and weights raise
    :class:`SimulationError`.
    """
    if len(demands) == 0:
        return []
    indices, indptr, weights, caps = _intern_demands(demands, capacities)
    rates, _ = maxmin_allocate_indexed(indices, indptr, weights, caps)
    return rates.tolist()


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


def scatter_link_loads(
    load: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    rates: np.ndarray,
) -> None:
    """Accumulate per-demand rates onto an existing load array, in place.

    The scatter runs in ascending-demand order (``np.add.at`` accumulates
    repeated indices in array order), which is the same float addition
    sequence :func:`link_loads_indexed` performs from scratch — so a
    persistent load array maintained by zeroing a component's links and
    re-scattering its demands stays bit-identical to a full recomputation,
    the contract the incremental reallocator relies on.
    """
    demand_of = np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.intp), np.diff(indptr))
    np.add.at(load, indices, np.asarray(rates, dtype=float)[demand_of])


def link_loads_indexed(
    indices: np.ndarray,
    indptr: np.ndarray,
    rates: np.ndarray,
    num_links: int,
) -> np.ndarray:
    """Dense per-link-id load (bits/s) for an allocation.

    The one shared load derivation: the network's reallocator divides this
    by the capacity array for its utilization surface, and the string-keyed
    :func:`link_utilizations` wraps it for external callers.
    """
    load = np.zeros(num_links, dtype=float)
    scatter_link_loads(load, indices, indptr, rates)
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
    flat: List[int] = []
    indptr = np.zeros(len(demands) + 1, dtype=np.intp)
    for j, (links, _) in enumerate(demands):
        for link in links:
            index = used_links.setdefault(link, len(used_links))
            flat.append(index)
        indptr[j + 1] = len(flat)
    load = link_loads_indexed(
        np.asarray(flat, dtype=np.intp), indptr, np.asarray(rates, dtype=float), len(used_links)
    )
    return {
        link: float(load[index]) / capacities[link]
        for link, index in used_links.items()
    }
