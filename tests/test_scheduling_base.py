"""Tests for the scheduler interface and message accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
