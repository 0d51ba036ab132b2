"""Equal-cost paths computed from per-switch tables, never stored per pair.

A route between two ToRs is a pure function of the pair and an index
(DARD §2.3): the paths are every ``(up-agg, core, down-agg)`` combination
wired end to end, in a fixed order. :class:`EqualCostPaths` is that set
as a read-only sequence. Its length, items, ``index()``, the failure
filter and each path's link ids are computed from two :class:`UplinkTable`
CSRs, ToR -> aggs and agg -> cores, which hold one entry per switch-switch
cable. Nothing the sequence computes is kept by the topology, so memory
does not grow with the number of distinct ToR pairs a workload touches.

Base order, the order ECMP hashes into and DARD's path indices refer to:
source-side aggregation switch ascending, then core ascending, then
destination-side aggregation switch ascending (names compare as
strings). Intra-pod pairs list one 3-switch path per shared aggregation
switch, ascending; a ToR paired with itself has the single path
``(tor,)``.

An inter-pod pair's sequence keeps a few arrays per *leg*, one leg per
(source agg, core) cable, plus the destination-side descents sorted by
core. Python work per call grows with switch fan-out; anything
proportional to the path count is one numpy operation, or happens only
for the item asked for.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import chain
from typing import (
    AbstractSet,
    Callable,
    Dict,
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

#: A :meth:`EqualCostPaths.hop_links` id table as plain rows (lists or int arrays).
IdTable = Sequence[Sequence[int]]

_NONE = np.empty(0, dtype=np.intp)


class UplinkTable:
    """One switch layer's uplinks as a CSR over name-sorted ranks.

    Row ``r`` is ``lower[r]``, the ``r``-th switch of the lower layer by
    name; ``parents[indptr[r]:indptr[r + 1]]`` are the ranks in ``upper``
    of its neighbours one layer up, ascending, and ``rows`` maps each
    entry back to its row. Entry ``k`` is one cable between
    ``lower_of[k]`` and ``upper_of[k]``, and :meth:`cables` lists the
    cables in entry order.
    """

    __slots__ = (
        "lower", "upper", "upper_rank", "indptr", "parents", "rows", "lower_of",
        "upper_of", "_bounds",
    )

    def __init__(
        self,
        lower: List[str],
        upper: List[str],
        upper_rank: Dict[str, int],
        parents_of: Callable[[str], Iterable[str]],
    ) -> None:
        parents = [sorted(upper_rank[name] for name in parents_of(low)) for low in lower]
        degrees = np.array([len(row) for row in parents], dtype=np.intp)
        self.lower = lower
        self.upper = upper
        self.upper_rank = upper_rank
        self.indptr = np.zeros(len(lower) + 1, dtype=np.intp)
        np.cumsum(degrees, out=self.indptr[1:])
        self.parents = np.fromiter(
            chain.from_iterable(parents), dtype=np.intp, count=int(self.indptr[-1])
        )
        self.rows = np.arange(len(lower), dtype=np.intp).repeat(degrees)
        self.lower_of = np.array(lower, dtype=object)[self.rows]
        self.upper_of = np.array(upper, dtype=object)[self.parents]
        self._bounds: List[int] = self.indptr.tolist()

    def row(self, r: int) -> Tuple[int, int]:
        """The entry range ``[lo, hi)`` of row ``r``."""
        return self._bounds[r], self._bounds[r + 1]

    def entry(self, row: int, parent: int) -> int:
        """The entry of the cable ``(lower[row], upper[parent])``; -1 if unwired."""
        lo, hi = self._bounds[row], self._bounds[row + 1]
        k = lo + int(self.parents[lo:hi].searchsorted(parent))
        return k if k < hi and self.parents[k] == parent else -1

    def entries(self, rows: List[int]) -> np.ndarray:
        """The entries of ``rows`` (ascending), concatenated in order."""
        indptr = self.indptr
        if rows[-1] - rows[0] + 1 == len(rows):
            # Consecutive rows, as every fat-tree pod's aggs are: one run.
            # The general gather below costs about 25 us more per path set
            # at p=16, and every placement builds a set.
            return np.arange(indptr[rows[0]], indptr[rows[-1] + 1], dtype=np.intp)
        lo = indptr[rows]
        lengths = indptr[np.add(rows, 1)] - lo
        ends = lengths.cumsum()
        return np.arange(int(ends[-1]), dtype=np.intp) + (lo - ends + lengths).repeat(
            lengths
        )

    def cables(self) -> Iterator[Tuple[str, str]]:
        """Every cable as ``(lower switch, upper switch)``, in entry order."""
        return zip(self.lower_of.tolist(), self.upper_of.tolist())


class PathTables:
    """The per-switch tables a topology computes its paths from.

    ``tor`` maps ToRs to aggregation switches and ``agg`` maps
    aggregation switches to cores; ``tor_rank`` is each ToR's row in
    ``tor``. Their size is a few integers per switch-switch cable and one
    dictionary entry per switch.
    """

    __slots__ = ("tor", "agg", "tor_rank")

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

    def paths(self, src_tor: str, dst_tor: str) -> "EqualCostPaths":
        """The equal-cost paths between two ToRs (both must be ToRs)."""
        if src_tor == dst_tor:
            return _SameTor(src_tor)
        tor = self.tor
        s0, s1 = tor.row(self.tor_rank[src_tor])
        d0, d1 = tor.row(self.tor_rank[dst_tor])
        up = tor.parents[s0:s1].tolist()
        down = tor.parents[d0:d1].tolist()
        shared = set(up).intersection(down)
        if shared:
            return _IntraPod(self, src_tor, dst_tor, sorted(shared))
        return _InterPod(self, src_tor, dst_tor, up, down)


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
        id tables as plain rows: a few reads, no numpy gather."""
        return []

    def dead_indices(self, failed: FailedLinks) -> np.ndarray:
        """Ascending indices of the paths that cross a cable in ``failed``.

        ``failed`` holds both directions of every failed cable. Only the
        cables touching this pair's switches are looked at; no path is
        built or tested one at a time.
        """
        return _NONE

    def hop_links(self, tor_ids: np.ndarray, agg_ids: np.ndarray) -> np.ndarray:
        """``(len, hops)`` link ids of every path, hop by hop.

        ``tor_ids``/``agg_ids`` are the ``(2, cables)`` id tables of the
        ToR and aggregation :class:`UplinkTable`: row 0 the upward
        direction of each entry's cable, row 1 the downward one. A ToR
        paired with itself has no switch-switch hop to monitor: ``(0, 0)``.
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

    __slots__ = ("_tables", "_mids")
    hops = 2

    def __init__(
        self, tables: PathTables, src_tor: str, dst_tor: str, mids: List[int]
    ) -> None:
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self._len = len(mids)
        self._tables = tables
        #: the shared aggregation switches, ascending.
        self._mids = [tables.tor.upper[r] for r in mids]

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

    def dead_indices(self, failed: FailedLinks) -> np.ndarray:
        src, dst = self.src_tor, self.dst_tor
        dead = [
            i for i, mid in enumerate(self._mids)
            if (src, mid) in failed or (mid, dst) in failed
        ]
        return np.array(dead, dtype=np.intp) if dead else _NONE

    def hop_row(self, i: int, tor_ids: IdTable, agg_ids: IdTable) -> List[int]:
        tables = self._tables
        tor = tables.tor
        r = tor.upper_rank[self._mids[i]]
        return [
            tor_ids[0][tor.entry(tables.tor_rank[self.src_tor], r)],
            tor_ids[1][tor.entry(tables.tor_rank[self.dst_tor], r)],
        ]

    def hop_links(self, tor_ids: np.ndarray, agg_ids: np.ndarray) -> np.ndarray:
        tables = self._tables
        tor = tables.tor
        s, d = tables.tor_rank[self.src_tor], tables.tor_rank[self.dst_tor]
        mids = [tor.upper_rank[mid] for mid in self._mids]
        up = [tor.entry(s, r) for r in mids]
        down = [tor.entry(d, r) for r in mids]
        return np.column_stack((tor_ids[0][up], tor_ids[1][down]))


class _InterPod(EqualCostPaths):
    """One 5-switch path per (up-agg, core, down-agg) wired end to end.

    Leg ``j`` is the ``j``-th (source agg, core) cable in base order,
    ``_leg_mid[j]`` its entry in the agg table (ascending in ``j``). The
    cables from the destination ToR's aggs up to their cores
    (``_desc_mid``, agg-table entries) are stacked core by core; a core's
    run lists the down-aggs it can descend through, ascending. Leg ``j``
    owns the paths ``_ends[j] - n_j`` up to ``_ends[j]``: one per descent
    in the run of its core, which starts at ``_first[j]`` and is ``n_j``
    long.
    """

    __slots__ = ("_tables", "_up", "_down", "_leg_mid", "_first", "_ends", "_desc_mid")
    hops = 4

    def __init__(
        self,
        tables: PathTables,
        src_tor: str,
        dst_tor: str,
        up: List[int],
        down: List[int],
    ) -> None:
        self.src_tor = src_tor
        self.dst_tor = dst_tor
        self._tables = tables
        #: ranks of the source and destination ToRs' aggs, ascending.
        self._up = up
        self._down = down
        agg = tables.agg
        self._leg_mid = agg.entries(up)
        desc_mid = agg.entries(down)
        cores = agg.parents[desc_mid]
        by_core = cores.argsort(kind="stable")
        self._desc_mid = desc_mid[by_core]
        runs = cores[by_core]
        leg_core = agg.parents[self._leg_mid]
        self._first = runs.searchsorted(leg_core)
        self._ends = (runs.searchsorted(leg_core, side="right") - self._first).cumsum()
        self._len = int(self._ends[-1])
        if not self._len:
            raise TopologyError(f"no up-down path between {src_tor!r} and {dst_tor!r}")

    def _leg_descent(self, i: int) -> Tuple[int, int]:
        """Path ``i``'s agg-table entries: its leg and its descent."""
        ends = self._ends
        j = ends.searchsorted(i, "right")
        k = i - ends[j - 1] if j else i
        return self._leg_mid[j], self._desc_mid[self._first[j] + k]

    def _item(self, i: int) -> SwitchPath:
        mid, descent = self._leg_descent(i)
        agg = self._tables.agg
        return (
            self.src_tor,
            agg.lower_of[mid],
            agg.upper_of[mid],
            agg.lower_of[descent],
            self.dst_tor,
        )

    def hop_row(self, i: int, tor_ids: IdTable, agg_ids: IdTable) -> List[int]:
        mid, descent = self._leg_descent(i)
        tables = self._tables
        tor, rows = tables.tor, tables.agg.rows
        s0, _ = tor.row(tables.tor_rank[self.src_tor])
        d0, _ = tor.row(tables.tor_rank[self.dst_tor])
        return [
            tor_ids[0][s0 + bisect_left(self._up, rows[mid])],
            agg_ids[0][mid],
            agg_ids[1][descent],
            tor_ids[1][d0 + bisect_left(self._down, rows[descent])],
        ]

    def _position(self, path: SwitchPath) -> int:
        if len(path) != 5 or path[0] != self.src_tor or path[4] != self.dst_tor:
            return -1
        agg = self._tables.agg
        agg_rank = self._tables.tor.upper_rank
        up = agg_rank.get(path[1], -1)
        core = agg.upper_rank.get(path[2], -1)
        down = agg_rank.get(path[3], -1)
        if up < 0 or core < 0 or down < 0:
            return -1
        mid = agg.entry(up, core)
        j = int(self._leg_mid.searchsorted(mid))
        if mid < 0 or j == self._leg_mid.size or self._leg_mid[j] != mid:
            return -1
        start = int(self._ends[j - 1]) if j else 0
        first = int(self._first[j])
        downs = agg.rows[self._desc_mid[first : first + int(self._ends[j]) - start]].tolist()
        k = bisect_left(downs, down)
        if k == len(downs) or downs[k] != down:
            return -1
        return start + k

    def __iter__(self) -> Iterator[SwitchPath]:
        src, dst = self.src_tor, self.dst_tor
        agg = self._tables.agg
        ups = agg.lower_of[self._leg_mid].tolist()
        mids = agg.upper_of[self._leg_mid].tolist()
        downs = agg.lower_of[self._desc_mid].tolist()
        start = 0
        for up, mid, first, end in zip(ups, mids, self._first.tolist(), self._ends.tolist()):
            for t in range(first, first + end - start):
                yield (src, up, mid, downs[t], dst)
            start = end

    def _path_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per path: its leg, and its descent in ``_desc_mid``."""
        counts = np.diff(self._ends, prepend=0)
        legs = np.arange(counts.size, dtype=np.intp).repeat(counts)
        descents = np.arange(self._len, dtype=np.intp) + (
            self._first - self._ends + counts
        ).repeat(counts)
        return legs, descents

    def dead_indices(self, failed: FailedLinks) -> np.ndarray:
        src, dst = self.src_tor, self.dst_tor
        agg = self._tables.agg
        aggs, core_rank = agg.lower, agg.upper_rank
        up = {aggs[r]: r for r in self._up}
        down = {aggs[r]: r for r in self._down}
        # The failed cables on this pair's paths, by hop: source ToR ->
        # agg and agg -> destination ToR (agg ranks), agg <-> core on
        # either side (agg-table entries).
        up_cut: List[int] = []
        leg_cut: List[int] = []
        descent_cut: List[int] = []
        down_cut: List[int] = []
        for u, v in failed:
            if u == src:
                if v in up:
                    up_cut.append(up[v])
            elif v == dst:
                if u in down:
                    down_cut.append(down[u])
            elif u in up:
                if v in core_rank:
                    leg_cut.append(agg.entry(up[u], core_rank[v]))
            elif v in down and u in core_rank:
                descent_cut.append(agg.entry(down[v], core_rank[u]))
        if not (up_cut or leg_cut or descent_cut or down_cut):
            return _NONE
        leg_dead = self._hits(self._leg_mid, up_cut, leg_cut)
        descent_dead = self._hits(self._desc_mid, down_cut, descent_cut)
        legs, descents = self._path_rows()
        return np.flatnonzero(leg_dead[legs] | descent_dead[descents])

    def _hits(self, mids: np.ndarray, aggs: List[int], cables: List[int]) -> np.ndarray:
        """Which agg-table entries ``mids`` leave a cut agg or are a cut cable."""
        hit = np.zeros(mids.size, dtype=bool)
        if aggs:
            rows = self._tables.agg.rows[mids]
            for r in aggs:
                hit |= rows == r
        for e in cables:
            hit |= mids == e
        return hit

    def hop_links(self, tor_ids: np.ndarray, agg_ids: np.ndarray) -> np.ndarray:
        tables = self._tables
        tor, agg = tables.tor, tables.agg
        s0, _ = tor.row(tables.tor_rank[self.src_tor])
        d0, _ = tor.row(tables.tor_rank[self.dst_tor])
        # A ToR's row lists its aggs as ``_up``/``_down`` do, so an agg's
        # ToR-table entry is the row start plus its position there.
        up_entry = s0 + np.searchsorted(self._up, agg.rows[self._leg_mid])
        down_entry = d0 + np.searchsorted(self._down, agg.rows[self._desc_mid])
        legs, descents = self._path_rows()
        return np.column_stack((
            tor_ids[0][up_entry[legs]],
            agg_ids[0][self._leg_mid[legs]],
            agg_ids[1][self._desc_mid[descents]],
            tor_ids[1][down_entry[descents]],
        ))
