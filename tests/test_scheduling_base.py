"""Tests for the scheduler interface and message accounting."""

import random
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ecmp import five_tuple_hash, hash_components
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.scheduling import MessageLedger, MessageSizes, SchedulerContext
from repro.scheduling.base import Scheduler, encode_and_verify
from repro.simulator import Network
from repro.topology import FatTree

from tests.test_computed_paths import PATH_TOPOLOGIES


class FirstPathScheduler(Scheduler):
    """Minimal concrete scheduler for interface tests."""

    name = "first"

    def choose_components(self, src, dst):
        return [self.ctx.network.component(src, dst, self.paths_between(src, dst), 0)]


@pytest.fixture
def ctx():
    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    return SchedulerContext(
        network=Network(topo),
        codec=PathCodec(HierarchicalAddressing(topo)),
        rng=np.random.default_rng(0),
    )


class TestSchedulerInterface:
    def test_place_starts_flow(self, ctx):
        scheduler = FirstPathScheduler()
        scheduler.attach(ctx)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 10 * MB)
        assert flow.flow_id in ctx.network.flows
        assert flow.components[0].link_ids[0] == ctx.network.link_index.id_of(
            ("h_0_0_0", "tor_0_0")
        )

    def test_context_shortcuts(self, ctx):
        assert ctx.topology is ctx.network.topology
        assert ctx.engine is ctx.network.engine

    def test_paths_between(self, ctx):
        scheduler = FirstPathScheduler()
        scheduler.attach(ctx)
        assert len(scheduler.paths_between("h_0_0_0", "h_1_0_0")) == 4

    def test_switch_path_of(self, ctx):
        """A placed flow names its path by index; the node path is built
        from that index on demand."""
        scheduler = FirstPathScheduler()
        scheduler.attach(ctx)
        flow = scheduler.place("h_0_0_0", "h_1_0_0", 10 * MB)
        assert flow.components[0].index == 0
        path = ctx.topology.host_path_at(flow.src, flow.dst, flow.components[0].index)
        assert path[1:-1] == scheduler.paths_between("h_0_0_0", "h_1_0_0")[0]

    def test_control_bytes_default_zero(self, ctx):
        scheduler = FirstPathScheduler()
        scheduler.attach(ctx)
        assert scheduler.control_message_bytes() == 0.0


class TestAliveFilter:
    """``alive_paths`` tests the access cables once and then derives the
    dead indices from the failed cables touching the pair's switches;
    ``Network.path_alive`` over the full host path is the reference.

    Clos has two destination aggs per core, the uneven custom topology
    has cores with different descent counts and the split-homed one has
    non-consecutive agg rows: the dead-index arithmetic must hold on all
    of them, as on the fat-tree and the 3-tier tree."""

    TOPOS = {
        name: PATH_TOPOLOGIES[name]()
        for name in ("fattree4", "clos", "threetier", "custom", "split")
    }

    @pytest.mark.parametrize("name", sorted(TOPOS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_path_alive_filter(self, name, data):
        topo = self.TOPOS[name]
        cables = sorted(link.endpoints() for link in topo.links())
        hosts = sorted(topo.hosts())
        network = Network(topo)
        scheduler = FirstPathScheduler()
        scheduler.attach(
            SchedulerContext(
                network=network, codec=None, rng=np.random.default_rng(0)
            )
        )
        for u, v in data.draw(st.sets(st.sampled_from(cables), max_size=8)):
            network.fail_link(u, v)
        for _ in range(4):
            src = data.draw(st.sampled_from(hosts))
            dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
            every = list(range(len(scheduler.paths_between(src, dst))))
            reference = [
                i for i in every
                if network.path_alive(topo.host_path_at(src, dst, i))
            ]
            paths, alive = scheduler.alive_paths(src, dst)
            assert list(alive) == (reference or every)
            assert list(paths) == [topo.host_path_at(src, dst, i)[1:-1] for i in every]


#: A failed cable's cut kind: its hop on the pair's host paths.
CUT_KINDS = (
    "source access", "ToR -> agg", "agg -> core", "core -> agg", "agg -> ToR",
    "destination access",
)

#: The cut kinds of a host path's hops, by its hop count.
KINDS_BY_HOPS = {
    6: CUT_KINDS,
    4: CUT_KINDS[:2] + CUT_KINDS[4:],
    2: (CUT_KINDS[0], CUT_KINDS[-1]),
}


def pair_cables(topo, src, dst):
    """The cables on the pair's own host paths, by cut kind (a kind the
    pair's paths do not have, such as agg -> core within a pod, is left
    out); each cable as its hop's direction, which ``fail_link`` takes."""
    by_kind = {}
    for path in topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst)):
        hops = list(zip((src,) + path, path + (dst,)))
        for kind, hop in zip(KINDS_BY_HOPS[len(hops)], hops):
            by_kind.setdefault(kind, set()).add(hop)
    return {kind: sorted(cables) for kind, cables in by_kind.items()}


def check_alive_and_hash(network, topo, src, dst, seed):
    """``alive_paths`` against ``Network.path_alive`` over every host path,
    and ECMP placement against a five-tuple of two scalar draws: the
    same index, and the generator left where those draws leave it."""
    rng = np.random.default_rng(seed)
    scheduler = FirstPathScheduler()
    scheduler.attach(SchedulerContext(network=network, codec=None, rng=rng))
    every = list(range(len(scheduler.paths_between(src, dst))))
    reference = [
        i for i in every if network.path_alive(topo.host_path_at(src, dst, i))
    ]
    _, alive = scheduler.alive_paths(src, dst)
    assert list(alive) == (reference or every)
    twin = np.random.default_rng(seed)
    sport, dport = int(twin.integers(1024, 65536)), int(twin.integers(1024, 65536))
    [component] = hash_components(scheduler, src, dst)
    assert component.index == alive[five_tuple_hash(src, dst, sport, dport, len(alive))]
    assert rng.bit_generator.state == twin.bit_generator.state


class TestCutsOnThePairsOwnCables:
    """Failures drawn from the sampled pair's own cables, at fan-out > 2
    and on the two custom topologies: every cut kind, alone and together."""

    TOPOS = {name: PATH_TOPOLOGIES[name]() for name in ("custom", "fattree8", "split")}
    NETWORKS = {name: Network(topo) for name, topo in TOPOS.items()}

    @pytest.mark.parametrize("name", sorted(TOPOS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_cuts_match_path_alive(self, name, data):
        topo, network = self.TOPOS[name], self.NETWORKS[name]
        hosts = sorted(topo.hosts())
        src = data.draw(st.sampled_from(hosts))
        dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
        cables = pair_cables(topo, src, dst)
        kinds = data.draw(st.sets(st.sampled_from(sorted(cables)), min_size=1))
        cut = set()
        for kind in sorted(kinds):
            cut |= data.draw(st.sets(st.sampled_from(cables[kind]), min_size=1, max_size=2))
        for u, v in cut:
            network.fail_link(u, v)
        try:
            check_alive_and_hash(network, topo, src, dst, data.draw(st.integers(0, 2**32)))
        finally:
            for u, v in cut:
                network.restore_link(u, v)

    @pytest.mark.parametrize("name", sorted(TOPOS))
    def test_every_cut_kind_alone_and_in_pairs(self, name):
        topo, network = self.TOPOS[name], self.NETWORKS[name]
        hosts = sorted(topo.hosts())
        rng = random.Random(0)
        pairs = [(s, d) for s in hosts for d in hosts if s != d]
        covered = set()
        for src, dst in pairs if len(pairs) <= 20 else rng.sample(pairs, 12):
            cables = pair_cables(topo, src, dst)
            kinds = sorted(cables)
            for combo in chain(combinations(kinds, 1), combinations(kinds, 2)):
                cut = {rng.choice(cables[kind]) for kind in combo}
                for u, v in cut:
                    network.fail_link(u, v)
                try:
                    check_alive_and_hash(network, topo, src, dst, rng.randrange(2**32))
                finally:
                    for u, v in cut:
                        network.restore_link(u, v)
                covered.update(combo)
        assert covered == set(CUT_KINDS)


class TestEncodeAndVerify:
    def test_round_trip_ok(self, ctx):
        path = ctx.topology.equal_cost_paths("tor_0_0", "tor_1_0")[1]
        src_addr, dst_addr = encode_and_verify(ctx.codec, "h_0_0_0", "h_1_0_0", path)
        assert ctx.codec.decode(src_addr, dst_addr) == path


class TestMessageLedger:
    def test_accumulates_by_kind(self):
        ledger = MessageLedger()
        ledger.record("query", 48, count=10)
        ledger.record("reply", 32, count=10)
        ledger.record("query", 48, count=5)
        assert ledger.bytes_by_kind["query"] == 48 * 15
        assert ledger.count_by_kind["reply"] == 10
        assert ledger.total_bytes == 48 * 15 + 32 * 10
        assert ledger.total_messages == 25

    def test_rate(self):
        ledger = MessageLedger()
        ledger.record("x", 100, count=10)
        assert ledger.bytes_per_second(10.0) == 100.0
        with pytest.raises(ValueError):
            ledger.bytes_per_second(0.0)

    def test_negative_rejected(self):
        ledger = MessageLedger()
        with pytest.raises(ValueError):
            ledger.record("x", -1)
        with pytest.raises(ValueError):
            ledger.record("x", 1, count=-1)

    def test_paper_message_sizes(self):
        sizes = MessageSizes()
        assert sizes.dard_query == 48
        assert sizes.dard_reply == 32
        assert sizes.report_to_controller == 80
        assert sizes.update_from_controller == 72
