"""Computed equal-cost paths against the enumerator they replaced.

:meth:`MultiRootedTopology.equal_cost_paths` returns a sequence computed
from per-switch tables and keeps nothing per ToR pair.
:func:`compute_paths` is the enumerator the topology used to run and
cache — one tuple per path — kept here as the oracle: at p <= 16 it is
cheap enough to compare every pair and every index exhaustively. The
same sweep checks each path's link-id row, which
:meth:`~repro.simulator.network.Network.component` builds from the
per-switch tables and the index, against the row interned from the
enumerated node path.
"""

import itertools
from typing import Dict, List

import pytest

from repro.common.errors import TopologyError
from repro.simulator.network import Network
from repro.topology.custom import TopologySpec, build_custom
from repro.topology.paths import EqualCostPaths

from tests.test_addressing_arithmetic import TOPOLOGIES


def split_homed_custom():
    """ToRs homed on aggs that are not adjacent by name (t0 on a0 and a2,
    t2 on a3 and a5), so a path set gathers its legs and descents from
    non-consecutive agg rows; no core reaches every agg, and some legs
    have no descent."""
    return build_custom(
        TopologySpec(
            cores=["c0", "c1", "c2"],
            aggs={"a0": 0, "a1": 0, "a2": 0, "a3": 1, "a4": 1, "a5": 1},
            tors={"t0": 0, "t1": 0, "t2": 1, "t3": 1},
            hosts={"h0": "t0", "h1": "t0", "h2": "t1", "h3": "t2", "h4": "t3"},
            core_agg_links=[
                ("c0", "a0"), ("c0", "a1"), ("c0", "a3"), ("c0", "a4"),
                ("c1", "a0"), ("c1", "a2"), ("c1", "a5"),
                ("c2", "a1"), ("c2", "a2"), ("c2", "a3"), ("c2", "a5"),
            ],
            agg_tor_links=[
                ("a0", "t0"), ("a2", "t0"), ("a1", "t1"),
                ("a3", "t2"), ("a5", "t2"), ("a4", "t3"),
            ],
        )
    )


#: The addressing oracle's six topologies, plus one with split homing.
PATH_TOPOLOGIES = {**TOPOLOGIES, "split": split_homed_custom}


def uplinks(topology) -> Dict[str, List[str]]:
    """Every ToR's and agg's up-neighbours, sorted."""
    return {
        name: sorted(topology.up_neighbors(name))
        for name in topology.tors() + topology.aggs()
    }


def compute_paths(up: Dict[str, List[str]], src_tor: str, dst_tor: str) -> List[tuple]:
    """Every up-down path, built tuple by tuple in base order."""
    if src_tor == dst_tor:
        return [(src_tor,)]
    src_aggs = up[src_tor]
    dst_aggs = up[dst_tor]
    dst_set = set(dst_aggs)
    common = [a for a in src_aggs if a in dst_set]
    if common:
        return [(src_tor, agg, dst_tor) for agg in common]
    descents: Dict[str, List[str]] = {}
    for agg_down in dst_aggs:
        for core in up[agg_down]:
            descents.setdefault(core, []).append(agg_down)
    paths = []
    for agg_up in src_aggs:
        for core in up[agg_up]:
            for agg_down in descents.get(core, ()):
                paths.append((src_tor, agg_up, core, agg_down, dst_tor))
    if not paths:
        raise TopologyError(f"no up-down path between {src_tor!r} and {dst_tor!r}")
    return paths


@pytest.fixture(scope="module", params=sorted(PATH_TOPOLOGIES))
def topology(request):
    return PATH_TOPOLOGIES[request.param]()


#: Past this many ToRs (fattree16's 128) the row check samples each
#: pair's first, middle and last index instead of every index.
EVERY_ROW_MAX_TORS = 32


def test_every_pair_matches_the_enumerator(topology):
    tors = sorted(topology.tors())
    up = uplinks(topology)
    network = Network(topology)
    hosts: Dict[str, List[str]] = {}
    for host in sorted(topology.hosts()):
        hosts.setdefault(topology.tor_of(host), []).append(host)
    previous: List[tuple] = []
    for src, dst in itertools.product(tors, tors):
        expected = compute_paths(up, src, dst)
        paths = topology.equal_cost_paths(src, dst)
        n = len(expected)
        # Each component row is the enumerated node path's interned links
        # (a ToR with no host, or one host paired with itself, has none).
        src_host = hosts.get(src, [None])[0]
        dst_host = next((h for h in hosts.get(dst, []) if h != src_host), None)
        if src_host is not None and dst_host is not None:
            every = len(tors) <= EVERY_ROW_MAX_TORS
            for i in range(n) if every else sorted({0, n // 2, n - 1}):
                component = network.component(src_host, dst_host, paths, i)
                node_path = topology.host_path(src_host, dst_host, expected[i])
                assert component.index == i
                assert component.link_ids == network.link_index.index_path(node_path).tolist()
        assert isinstance(paths, EqualCostPaths)
        assert len(paths) == n
        assert list(paths) == expected
        assert [paths[i] for i in range(-n, n)] == expected * 2
        for outside in (n, -n - 1):
            with pytest.raises(IndexError):
                paths[outside]
        assert [paths.index(path) for path in expected] == list(range(n))
        assert paths.hops == len(expected[0]) - 1
        # Another pair's paths never index into this one.
        for path in previous[:3]:
            assert path not in paths
            with pytest.raises(ValueError):
                paths.index(path)
        previous = expected


def test_mixed_up_hops_are_not_members(topology):
    """Same endpoints, wrong middle: swapped aggs, a foreign core, a host."""
    tors = sorted(topology.tors())
    up = uplinks(topology)
    for src, dst in itertools.product(tors[:6], tors[-6:]):
        paths = topology.equal_cost_paths(src, dst)
        members = set(compute_paths(up, src, dst))
        for path in list(paths)[:4]:
            mutants = [list(path)[::-1], ["h"] + list(path[1:])]
            if len(path) == 5:
                mutants += [
                    [path[0], path[3], path[2], path[1], path[4]],
                    [path[0], path[1], path[1], path[3], path[4]],
                ]
                mutants += [
                    [path[0], path[1], core, path[3], path[4]]
                    for core in sorted(topology.cores())
                ]
            for mutant in map(tuple, mutants):
                assert (mutant in paths) == (mutant in members)
                if mutant not in members:
                    with pytest.raises(ValueError):
                        paths.index(mutant)
        assert list(paths) == compute_paths(up, src, dst)


def test_index_bounds_and_non_tuples(topology):
    src, dst = sorted(topology.tors())[0], sorted(topology.tors())[-1]
    paths = topology.equal_cost_paths(src, dst)
    first = paths[0]
    assert paths.index(first, 0, 1) == 0
    with pytest.raises(ValueError):
        paths.index(first, 1)
    with pytest.raises(ValueError):
        paths.index(list(first))
    assert paths.count(first) == 1
    assert paths[: len(paths)] == list(paths)
    assert list(reversed(paths)) == list(paths)[::-1]


def test_without_is_a_view_in_base_order(topology):
    """A path set without its dead indices is the alive paths by base
    index: ``dead_indices`` ascends and names exactly the paths crossing
    a failed cable, and every other index still yields its own path."""
    src, dst = sorted(topology.tors())[0], sorted(topology.tors())[-1]
    paths = topology.equal_cost_paths(src, dst)
    expected = list(paths)
    cables = sorted({hop for p in expected for hop in zip(p, p[1:])})
    for k in range(len(cables)):
        cut = cables[k::3]
        failed = set(cut) | {(v, u) for u, v in cut}
        dead = paths.dead_indices(failed)
        assert dead == sorted(set(dead))
        alive = [i for i in range(len(paths)) if i not in dead]
        assert alive == [
            i for i, p in enumerate(expected)
            if failed.isdisjoint(zip(p, p[1:]))
        ]
        assert [paths[i] for i in alive] == [expected[i] for i in alive]
        assert [paths.index(expected[i]) for i in alive] == alive


@pytest.mark.parametrize("name", ["clos", "custom", "fattree8", "split"])
def test_tables_hold_one_entry_per_aggregation_set(name):
    """Every ToR pair's set built and read in full (items, ``index()``,
    ``hop_links`` against the interned node paths, ``dead_indices``) leaves at most one legs and one
    descents entry per distinct aggregation set: nothing is kept per ToR
    pair or pod pair."""
    topology = PATH_TOPOLOGIES[name]()
    network = Network(topology)
    tables = topology.path_tables()
    tor_ids = network.link_index.cable_ids(tables.tor)
    agg_ids = network.link_index.cable_ids(tables.agg)
    tors = sorted(topology.tors())
    cables = sorted(link.endpoints() for link in topology.links())[::5]
    failed = set(cables) | {(v, u) for u, v in cables}
    for src, dst in itertools.product(tors, tors):
        paths = topology.equal_cost_paths(src, dst)
        assert [paths.index(path) for path in paths] == list(range(len(paths)))
        hops = paths.hop_links(tor_ids, agg_ids)
        if paths.hops:  # a ToR paired with itself has none: (0, 0)
            interned = [network.link_index.index_path(path).tolist() for path in paths]
            assert hops.tolist() == interned
        assert set(paths.dead_indices(failed)) <= set(range(len(paths)))
    sets = {tuple(sorted(topology.up_neighbors(tor))) for tor in tors}
    assert 0 < len(tables._legs) <= len(sets)
    assert 0 < len(tables._descents) <= len(sets)
    if name == "fattree8":
        assert len(tables._legs) == len(tables._descents) == 8  # one per pod
