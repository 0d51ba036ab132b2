"""Equal-cost paths computed from per-switch tables, never stored per pair.

A route between two ToRs is a pure function of the pair and an index
(DARD §2.3): the paths are every ``(up-agg, core, down-agg)`` combination
wired end to end, in a fixed order. :class:`EqualCostPaths` is that set
as a read-only sequence. Its length, items, ``index()``, the failure
filter and each path's link ids are computed from two :class:`UplinkTable`
CSRs, ToR -> aggs and agg -> cores, which hold one entry per switch-switch
cable, and from two tables memoized per *aggregation set* (the aggs one
ToR hangs off):

* the *legs* of a set, one per (source agg, core) cable in base order
  (:class:`Legs`);
* the *descents* of a set, its (core, destination agg) cables grouped
  by core (:class:`Descents`).

In a fat-tree every ToR of a pod has the same aggregation set, so there
is one legs and one descents entry per pod; in any topology there is at
most one of each per distinct set, never one per ToR pair or pod pair.
Each is a handful of compact ``array('q')`` columns of one integer per
cable above the set, plus a name -> position dictionary; at p=32 all 64
entries together take about 0.6 MB. So memory does not grow with the
number of distinct ToR pairs a workload touches, and a path set's
methods do only reads of these tables: scalar reads, one binary search,
and per failed cable a loop over the fan-out.

Base order, the order ECMP hashes into and DARD's path indices refer to:
source-side aggregation switch ascending, then core ascending, then
destination-side aggregation switch ascending (names compare as
strings). Intra-pod pairs list one 3-switch path per shared aggregation
switch, ascending; a ToR paired with itself has the single path
``(tor,)``.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

from repro.common.errors import TopologyError

#: A switch-level path from source ToR to destination ToR, inclusive.
SwitchPath = Tuple[str, ...]

#: A failed-cable set as the network keeps it: both directions of a cable.
FailedLinks = AbstractSet[Tuple[str, str]]

#: An :class:`UplinkTable`'s cable ids as ``LinkIndex.cable_ids`` keeps
#: them: two ``array('q')`` rows, the upward and the downward direction
#: of each entry's cable.
IdTable = Tuple["array[int]", "array[int]"]


def _view(row: "array[int]") -> np.ndarray:
    """An ``array('q')`` as an int64 numpy array, without a copy."""
    return np.frombuffer(row, dtype=np.int64)


class UplinkTable:
    """One switch layer's uplinks as a CSR over name-sorted ranks.

    Row ``r`` is ``lower[r]``, the ``r``-th switch of the lower layer by
    name; ``parents[indptr[r]:indptr[r + 1]]`` are the ranks in ``upper``
    of its neighbours one layer up, ascending. Entry ``k`` is one cable,
    and :meth:`cables` lists the cables in entry order.
    """

    __slots__ = ("lower", "upper", "upper_rank", "indptr", "parents")

    def __init__(
        self,
        lower: List[str],
        upper: List[str],
        upper_rank: Dict[str, int],
        parents_of: Callable[[str], Iterable[str]],
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.upper_rank = upper_rank
        self.parents = array("q")
        self.indptr = [0]
        for low in lower:
            self.parents.extend(sorted(upper_rank[name] for name in parents_of(low)))
            self.indptr.append(len(self.parents))

    def cables(self) -> Iterator[Tuple[str, str]]:
        """Every cable as ``(lower switch, upper switch)``, in entry order."""
        upper, parents, indptr = self.upper, self.parents, self.indptr
        for r, name in enumerate(self.lower):
            for k in range(indptr[r], indptr[r + 1]):
                yield name, upper[parents[k]]


class Legs:
    """The (agg, core) cables above one aggregation set, in base order.

    Leg ``j`` is the cable ``mid[j]`` (an agg-table entry) from the set's
    ``at[j]``-th agg up to core ``core[j]``; the legs of the ``k``-th agg
    are ``first[k]`` up to ``first[k + 1]``, cores ascending. The legs
    reaching core ``c`` are ``by_core[core_first[c]:core_first[c + 1]]``,
    ascending. ``pos`` maps each agg's name to its position in the set.
    """

    __slots__ = ("names", "pos", "mid", "core", "at", "first", "core_first", "by_core")

    def __init__(self, agg: UplinkTable, aggs: Tuple[int, ...]) -> None:
        indptr, parents = agg.indptr, agg.parents
        self.names = tuple(agg.lower[a] for a in aggs)
        self.pos = {name: k for k, name in enumerate(self.names)}
        self.mid = array("q")
        self.at = array("q")
        self.first = array("q", [0])
        for k, a in enumerate(aggs):
            lo, hi = indptr[a], indptr[a + 1]
            self.mid.extend(range(lo, hi))
            self.at.extend([k] * (hi - lo))
            self.first.append(len(self.mid))
        self.core = array("q", [parents[e] for e in self.mid])
        reaching: List[List[int]] = [[] for _ in agg.upper]
        for j, c in enumerate(self.core):
            reaching[c].append(j)
        self.by_core = array("q")
        self.core_first = array("q", [0])
        for legs in reaching:
            self.by_core.extend(legs)
            self.core_first.append(len(self.by_core))


class Descents:
    """The (core, agg) cables above one aggregation set, grouped by core.

    Core ``c`` descends through ``mid[start[c]:start[c + 1]]`` (agg-table
    entries), a run whose ``at`` lists the aggs' positions in the set,
    ascending. ``uniform`` is the run length when every core's run has
    the same one (every fat-tree, Clos and 3-tier set), else 0. ``pos``
    maps each agg's name to its position in the set.
    """

    __slots__ = ("aggs", "names", "pos", "start", "mid", "at", "uniform")

    def __init__(self, agg: UplinkTable, aggs: Tuple[int, ...]) -> None:
        indptr, parents = agg.indptr, agg.parents
        self.aggs = aggs
        self.names = tuple(agg.lower[a] for a in aggs)
        self.pos = {name: k for k, name in enumerate(self.names)}
        runs: List[List[Tuple[int, int]]] = [[] for _ in agg.upper]
        for k, a in enumerate(aggs):
            for e in range(indptr[a], indptr[a + 1]):
                runs[parents[e]].append((e, k))
        self.mid = array("q")
        self.at = array("q")
        self.start = array("q", [0])
        for run in runs:
            for e, k in run:
                self.mid.append(e)
                self.at.append(k)
            self.start.append(len(self.mid))
        lengths = {len(run) for run in runs}
        self.uniform = lengths.pop() if len(lengths) == 1 else 0

    def find(self, core: int, k: int) -> int:
        """The descent of core ``core`` through the set's ``k``-th agg; -1 if unwired."""
        lo, hi = self.start[core], self.start[core + 1]
        t = bisect_left(self.at, k, lo, hi)
        return t if t < hi and self.at[t] == k else -1


class PathTables:
    """The per-switch tables a topology computes its paths from.

    ``tor`` maps ToRs to aggregation switches and ``agg`` maps
    aggregation switches to cores; ``tor_rank`` is each ToR's row in
    ``tor``. Their size is a few integers per switch-switch cable and one
    dictionary entry per switch. Each ToR's aggregation set is interned
    (``_tor_set``); the :class:`Legs` and :class:`Descents` of a set are
    built on first use and kept, at most one of each per distinct set.
    """

    __slots__ = ("tor", "agg", "tor_rank", "_tor_set", "_sets", "_members", "_legs", "_descents")

    def __init__(
        self,
        tors: List[str],
        aggs: List[str],
        cores: List[str],
        up_neighbors: Callable[[str], Iterable[str]],
    ) -> None:
        agg_rank = {name: r for r, name in enumerate(aggs)}
        core_rank = {name: r for r, name in enumerate(cores)}
        self.tor = UplinkTable(tors, aggs, agg_rank, up_neighbors)
        self.agg = UplinkTable(aggs, cores, core_rank, up_neighbors)
        self.tor_rank = {name: r for r, name in enumerate(tors)}
        interned: Dict[Tuple[int, ...], int] = {}
        parents, indptr = self.tor.parents, self.tor.indptr
        #: ToR rank -> id of its aggregation set.
        self._tor_set = [
            interned.setdefault(tuple(parents[indptr[r] : indptr[r + 1]]), len(interned))
            for r in range(len(tors))
        ]
        #: set id -> its agg ranks, ascending (a ToR's row in ``tor``).
        self._sets: List[Tuple[int, ...]] = list(interned)
        self._members: List[FrozenSet[int]] = [frozenset(s) for s in self._sets]
        self._legs: Dict[int, Legs] = {}
        self._descents: Dict[int, Descents] = {}

    def legs(self, s: int) -> Legs:
        """The legs above aggregation set ``s``, built on first use."""
        legs = self._legs.get(s)
        if legs is None:
            legs = self._legs[s] = Legs(self.agg, self._sets[s])
        return legs

    def descents(self, s: int) -> Descents:
        """The descents into aggregation set ``s``, built on first use."""
        descents = self._descents.get(s)
        if descents is None:
            descents = self._descents[s] = Descents(self.agg, self._sets[s])
        return descents

    def paths(self, src_tor: str, dst_tor: str) -> "EqualCostPaths":
        """The equal-cost paths between two ToRs; :class:`TopologyError`
        if either is not a ToR."""
        s, d = self.tor_rank.get(src_tor, -1), self.tor_rank.get(dst_tor, -1)
        if s < 0 or d < 0:
            raise TopologyError(f"{src_tor if s < 0 else dst_tor!r} is not a ToR switch")
        if s == d:
            return _SameTor(src_tor)
        up, down = self._tor_set[s], self._tor_set[d]
        shared = self._members[up] & self._members[down]
        if shared:
            return _IntraPod(self, src_tor, dst_tor, s, d, sorted(shared))
        return _InterPod(self, src_tor, dst_tor, s, d, self.legs(up), self.descents(down))


class _Paths(Sequence[SwitchPath]):
    """A read-only sequence of one ToR pair's paths, computed per item.

    Supports ``len``, indexing (negative too, and slices, which return a
    list), iteration, ``in`` and ``index()``; ``index`` raises
    :class:`ValueError` for a path outside the set. Paths are tuples of
    switch names. Subclasses compute ``_item`` and ``_position``.
    """

    __slots__ = ("src_tor", "dst_tor", "_len")

    src_tor: str
    dst_tor: str
    _len: int

    def __len__(self) -> int:
        return self._len

    @overload
    def __getitem__(self, index: int) -> SwitchPath: ...

    @overload
    def __getitem__(self, index: slice) -> List[SwitchPath]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SwitchPath, List[SwitchPath]]:
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"path index {index} out of range for {self._len} paths")
        return self._item(i)

    def __contains__(self, path: object) -> bool:
        return isinstance(path, tuple) and self._position(path) >= 0

    def index(self, path: object, start: int = 0, stop: Optional[int] = None) -> int:
        """The position of ``path``; :class:`ValueError` if it is not here."""
        i = self._position(path) if isinstance(path, tuple) else -1
        if start or stop is not None:
            lo, hi, _ = slice(start, stop).indices(self._len)
            i = i if lo <= i < hi else -1
        if i < 0:
            raise ValueError(f"{path!r} is not in {self!r}")
        return i

    def count(self, path: object) -> int:
        """1 if ``path`` is here, else 0."""
        return int(path in self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.src_tor!r} -> {self.dst_tor!r}, "
            f"{self._len} paths)"
        )

    def _item(self, i: int) -> SwitchPath:
        raise NotImplementedError

    def _position(self, path: SwitchPath) -> int:
        """The index of ``path``, or -1 if it is not in the set."""
        raise NotImplementedError


class EqualCostPaths(_Paths):
    """The equal-cost paths between two ToRs, as a computed sequence.

    :meth:`dead_indices` is the failure filter of
    :meth:`repro.scheduling.base.Scheduler.alive_paths`; :meth:`hop_links`
    lays every path's link ids out for the monitor registry, and
    :meth:`hop_row` one path's for a flow component.
    """

    __slots__ = ()

    #: switch-switch hops on every path: 0 (same ToR), 2 or 4.
    hops = 0

    def hop_row(self, i: int, tor_ids: IdTable, agg_ids: IdTable) -> List[int]:
        """Row ``i`` of :meth:`hop_links` (``0 <= i < len``), from the same
        id tables: a few reads of plain ints, no numpy gather."""
        return []

    def dead_indices(self, failed: FailedLinks) -> List[int]:
        """Ascending indices of the paths that cross a cable in ``failed``.

        ``failed`` holds both directions of every failed cable. It is
        scanned once; each cable on this pair's hops names the paths it
        cuts from the tables, and no path is built or tested one at a
        time.
        """
        return []

    def hop_links(self, tor_ids: IdTable, agg_ids: IdTable) -> np.ndarray:
        """``(len, hops)`` link ids of every path, hop by hop.

        ``tor_ids``/``agg_ids`` are the id tables of the ToR and
        aggregation :class:`UplinkTable`, gathered through numpy views.
        A ToR paired with itself has no switch-switch hop to monitor:
        ``(0, 0)``.
        """
        return np.empty((0, 0), dtype=np.intp)


class _SameTor(EqualCostPaths):
    __slots__ = ()

    def __init__(self, tor: str) -> None:
        self.src_tor = self.dst_tor = tor
        self._len = 1

    def _item(self, i: int) -> SwitchPath:
        return (self.src_tor,)

    def _position(self, path: SwitchPath) -> int:
        return 0 if path == (self.src_tor,) else -1

    def __iter__(self) -> Iterator[SwitchPath]:
        yield (self.src_tor,)


class _IntraPod(EqualCostPaths):
    """One 3-switch path per aggregation switch above both ToRs."""

    __slots__ = ("_up", "_down", "_mids")
    hops = 2

    def __init__(
        self, tables: PathTables, src_tor: str, dst_tor: str, s: int, d: int, mids: List[int]
    ) -> None:
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self._len = len(mids)
        tor, sets, tor_set = tables.tor, tables._sets, tables._tor_set
        # Each shared agg's ToR-table entry on either side: a ToR's row
        # lists its aggs as its set does.
        up, down = sets[tor_set[s]], sets[tor_set[d]]
        s0, d0 = tor.indptr[s], tor.indptr[d]
        self._up = [s0 + bisect_left(up, r) for r in mids]
        self._down = [d0 + bisect_left(down, r) for r in mids]
        #: the shared aggregation switches' names, ascending.
        self._mids = [tor.upper[r] for r in mids]

    def _item(self, i: int) -> SwitchPath:
        return (self.src_tor, self._mids[i], self.dst_tor)

    def _position(self, path: SwitchPath) -> int:
        if len(path) != 3 or path[0] != self.src_tor or path[2] != self.dst_tor:
            return -1
        try:
            return self._mids.index(path[1])
        except ValueError:
            return -1

    def __iter__(self) -> Iterator[SwitchPath]:
        src, dst = self.src_tor, self.dst_tor
        return ((src, mid, dst) for mid in self._mids)

    def dead_indices(self, failed: FailedLinks) -> List[int]:
        src, dst = self.src_tor, self.dst_tor
        return [
            i for i, mid in enumerate(self._mids)
            if (src, mid) in failed or (mid, dst) in failed
        ]

    def hop_row(self, i: int, tor_ids: IdTable, agg_ids: IdTable) -> List[int]:
        return [tor_ids[0][self._up[i]], tor_ids[1][self._down[i]]]

    def hop_links(self, tor_ids: IdTable, agg_ids: IdTable) -> np.ndarray:
        return np.column_stack((_view(tor_ids[0])[self._up], _view(tor_ids[1])[self._down]))


class _InterPod(EqualCostPaths):
    """One 5-switch path per (up-agg, core, down-agg) wired end to end.

    Leg ``j`` of the source ToR's :class:`Legs` owns the paths
    ``_ends[j - 1]`` up to ``_ends[j]``: one per descent in the run of
    its core in the destination ToR's :class:`Descents`, in run order.
    When every run has the same length ``n``, ``_ends`` is the range
    ``n, 2n, ...``; otherwise it is the cumulative run lengths of the
    legs' cores, one integer per leg.
    """

    __slots__ = ("_tables", "_legs", "_descents", "_ends", "_s0", "_d0")
    hops = 4

    def __init__(
        self,
        tables: PathTables,
        src_tor: str,
        dst_tor: str,
        s: int,
        d: int,
        legs: Legs,
        descents: Descents,
    ) -> None:
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self._tables = tables
        self._legs = legs
        self._descents = descents
        #: the ToR-table entries of the two ToRs' first aggs: a ToR's row
        #: lists its aggs as its set does.
        self._s0 = tables.tor.indptr[s]
        self._d0 = tables.tor.indptr[d]
        n = descents.uniform
        start = descents.start
        self._ends: Sequence[int] = (
            range(n, n * len(legs.core) + 1, n) if n
            else list(accumulate(start[c + 1] - start[c] for c in legs.core))
        )
        self._len = self._ends[-1]
        if not self._len:
            raise TopologyError(f"no up-down path between {src_tor!r} and {dst_tor!r}")

    def _start(self, j: int) -> int:
        """The first path of leg ``j``."""
        return self._ends[j - 1] if j else 0

    def _leg_descent(self, i: int) -> Tuple[int, int]:
        """Path ``i``'s leg and its descent."""
        ends = self._ends
        j = bisect_right(ends, i)
        return j, self._descents.start[self._legs.core[j]] + i - (ends[j - 1] if j else 0)

    def _item(self, i: int) -> SwitchPath:
        # ``_leg_descent`` written out: the checks read every item of
        # every pair, and the call costs about a tenth of them.
        ends = self._ends
        j = bisect_right(ends, i)
        legs, descents = self._legs, self._descents
        t = descents.start[legs.core[j]] + i - (ends[j - 1] if j else 0)
        return (
            self.src_tor,
            legs.names[legs.at[j]],
            self._tables.agg.upper[legs.core[j]],
            descents.names[descents.at[t]],
            self.dst_tor,
        )

    def hop_row(self, i: int, tor_ids: IdTable, agg_ids: IdTable) -> List[int]:
        j, t = self._leg_descent(i)
        legs, descents = self._legs, self._descents
        return [
            tor_ids[0][self._s0 + legs.at[j]],
            agg_ids[0][legs.mid[j]],
            agg_ids[1][descents.mid[t]],
            tor_ids[1][self._d0 + descents.at[t]],
        ]

    def _position(self, path: SwitchPath) -> int:
        if len(path) != 5 or path[0] != self.src_tor or path[4] != self.dst_tor:
            return -1
        legs, descents = self._legs, self._descents
        k = legs.pos.get(path[1], -1)
        c = self._tables.agg.upper_rank.get(path[2], -1)
        kd = descents.pos.get(path[3], -1)
        if k < 0 or c < 0 or kd < 0:
            return -1
        hi = legs.first[k + 1]
        j = bisect_left(legs.core, c, legs.first[k], hi)
        if j == hi or legs.core[j] != c:
            return -1
        t = descents.find(c, kd)
        return -1 if t < 0 else (self._ends[j - 1] if j else 0) + t - descents.start[c]

    def __iter__(self) -> Iterator[SwitchPath]:
        src, dst = self.src_tor, self.dst_tor
        legs, descents = self._legs, self._descents
        cores, start = self._tables.agg.upper, descents.start
        downs = [descents.names[k] for k in descents.at]
        for k, c in zip(legs.at, legs.core):
            up, core = legs.names[k], cores[c]
            for t in range(start[c], start[c + 1]):
                yield (src, up, core, downs[t], dst)

    def dead_indices(self, failed: FailedLinks) -> List[int]:
        src, dst = self.src_tor, self.dst_tor
        legs, descents = self._legs, self._descents
        up, down = legs.pos, descents.pos
        core_rank = self._tables.agg.upper_rank
        dead: List[int] = []
        # The failed cables on this pair's hops, by hop: source ToR ->
        # agg and agg -> destination ToR cut every path through the agg,
        # agg -> core one leg's paths, core -> agg one path per leg
        # reaching the core (``failed`` holds both directions).
        for u, v in failed:
            if u == src:
                k = up.get(v, -1)
                if k >= 0:
                    dead += range(self._start(legs.first[k]), self._start(legs.first[k + 1]))
            elif v == dst:
                kd = down.get(u, -1)
                if kd >= 0:
                    agg = self._tables.agg
                    a = descents.aggs[kd]
                    for e in range(agg.indptr[a], agg.indptr[a + 1]):
                        c = agg.parents[e]
                        dead += self._through(c, descents.find(c, kd))
            elif u in up:
                c = core_rank.get(v, -1)
                if c >= 0:
                    k = up[u]
                    hi = legs.first[k + 1]
                    j = bisect_left(legs.core, c, legs.first[k], hi)
                    if j < hi and legs.core[j] == c:
                        dead += range(self._start(j), self._ends[j])
            elif v in down:
                c = core_rank.get(u, -1)
                if c >= 0:
                    dead += self._through(c, descents.find(c, down[v]))
        return sorted(set(dead))

    def _through(self, c: int, t: int) -> List[int]:
        """The paths taking descent ``t`` of core ``c``: one per leg
        reaching the core (none if ``t`` is -1)."""
        if t < 0:
            return []
        legs = self._legs
        offset = t - self._descents.start[c]
        return [
            self._start(j) + offset
            for j in legs.by_core[legs.core_first[c] : legs.core_first[c + 1]]
        ]

    def hop_links(self, tor_ids: IdTable, agg_ids: IdTable) -> np.ndarray:
        legs, descents = self._legs, self._descents
        core = _view(legs.core)
        start = _view(descents.start)
        # Path by path, its leg and its descent: leg ``j`` repeated once
        # per descent in its core's run, and that run's descents in order.
        first = start[core]
        counts = start[core + 1] - first
        leg = np.arange(core.size).repeat(counts)
        descent = np.arange(self._len) + (first + counts - counts.cumsum()).repeat(counts)
        return np.column_stack((
            _view(tor_ids[0])[self._s0 + _view(legs.at)[leg]],
            _view(agg_ids[0])[_view(legs.mid)[leg]],
            _view(agg_ids[1])[_view(descents.mid)[descent]],
            _view(tor_ids[1])[self._d0 + _view(descents.at)[descent]],
        ))
