"""Tests for the packet-level micro-simulator and its TCP implementation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.simulator import EventEngine, Network
from repro.packetsim import PacketSimulation, TcpParams
from repro.packetsim.links import PacketLink
from repro.packetsim.tcp import TcpReceiver, TcpSender
from repro.topology import FatTree


@pytest.fixture
def topo():
    return FatTree(p=4, link_bandwidth_bps=100 * MBPS)


class TestPacketLink:
    def test_serialization_and_propagation(self):
        engine = EventEngine()
        link = PacketLink(engine, capacity_bps=100 * MBPS, delay_s=0.001)
        arrivals = []
        link.transmit(1500, lambda: arrivals.append(engine.now))
        engine.run_until_idle()
        # 1500 B at 100 Mbps = 120 us serialization + 1 ms propagation.
        assert arrivals[0] == pytest.approx(0.00112)

    def test_fifo_queueing(self):
        engine = EventEngine()
        link = PacketLink(engine, capacity_bps=100 * MBPS, delay_s=0.0)
        arrivals = []
        for _ in range(3):
            link.transmit(1500, lambda: arrivals.append(engine.now))
        engine.run_until_idle()
        # Back-to-back serialization: 120, 240, 360 us.
        assert arrivals == pytest.approx([0.00012, 0.00024, 0.00036])

    def test_tail_drop(self):
        engine = EventEngine()
        link = PacketLink(engine, capacity_bps=100 * MBPS, delay_s=0.0, queue_packets=2)
        accepted = [link.transmit(1500, lambda: None) for _ in range(4)]
        assert accepted == [True, True, False, False]
        assert link.drops == 2

    def test_validation(self):
        engine = EventEngine()
        with pytest.raises(ConfigurationError):
            PacketLink(engine, capacity_bps=0.0, delay_s=0.0)
        with pytest.raises(ConfigurationError):
            PacketLink(engine, capacity_bps=1.0, delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            PacketLink(engine, capacity_bps=1.0, delay_s=0.0, queue_packets=0)


class TestTcpUnits:
    def test_receiver_cumulative_ack(self):
        receiver = TcpReceiver(5)
        assert receiver.on_segment(0) == 1
        assert receiver.on_segment(2) == 1  # hole at 1
        assert receiver.on_segment(1) == 3  # hole filled, jumps past 2
        assert not receiver.complete
        receiver.on_segment(3)
        assert receiver.on_segment(4) == 5
        assert receiver.complete

    def test_stale_duplicates_ignored(self):
        receiver = TcpReceiver(3)
        receiver.on_segment(0)
        assert receiver.on_segment(0) == 1  # duplicate does not regress

    def test_sender_slow_start_growth(self):
        engine = EventEngine()
        sent = []
        sender = TcpSender(engine, 100, sent.append, TcpParams(initial_cwnd=2.0))
        sender.start()
        assert len(sent) == 2  # initial window
        sender.on_ack(1)
        sender.on_ack(2)
        # Two new ACKs in slow start: cwnd 2 -> 4; window allows up to seq 6.
        assert len(sent) == 6

    def test_fast_retransmit_on_three_dupacks(self):
        engine = EventEngine()
        sent = []
        sender = TcpSender(engine, 100, sent.append, TcpParams(initial_cwnd=8.0))
        sender.start()
        cwnd_before = sender.cwnd
        for _ in range(3):
            sender.on_ack(0)
        assert sender.retransmissions == 1
        assert sent.count(0) == 2  # original + fast retransmit
        assert sender.cwnd < cwnd_before

    def test_sender_needs_segments(self):
        with pytest.raises(ConfigurationError):
            TcpSender(EventEngine(), 0, lambda s: None)


class TestPacketSimulation:
    def test_single_flow_near_line_rate(self, topo):
        sim = PacketSimulation(topo)
        sim.add_flow("h_0_0_0", "h_1_0_0", 2 * MB)
        result = sim.run()[0]
        assert result.goodput_bps > 90 * MBPS
        assert result.retransmissions == 0
        assert sim.total_drops == 0

    def test_two_flows_share_bottleneck(self, topo):
        sim = PacketSimulation(topo)
        sim.add_flow("h_0_0_0", "h_1_0_0", 2 * MB, path_index=0)
        sim.add_flow("h_0_0_0", "h_2_0_0", 2 * MB, path_index=2)
        results = sim.run()
        total_bits = sum(r.size_bytes * 8 for r in results)
        makespan = max(r.fct_s for r in results)
        # Aggregate goodput through the shared 100 Mbps access link.
        assert total_bits / makespan > 70 * MBPS

    def test_striping_causes_reordering_retx(self, topo):
        """The Fig. 13/14 mechanism, packet by packet: a flow striped over
        paths with different queueing delays retransmits; a single-path
        flow in the same conditions does not."""
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        background = topo.host_path("h_0_0_1", "h_1_0_1", paths[0])

        striped_sim = PacketSimulation(topo, seed=3)
        striped_sim.add_flow("h_0_0_1", "h_1_0_1", 4 * MB, paths=[background])
        striped_sim.add_flow(
            "h_0_0_0", "h_1_0_0", 2 * MB,
            paths=[topo.host_path("h_0_0_0", "h_1_0_0", p) for p in paths],
            weights=[0.25] * 4,
        )
        striped = striped_sim.run()[1]
        assert striped.retransmissions > 0

        # Control: a single-path flow on a link-disjoint idle path (via the
        # other aggregation switch) sees neither reordering nor drops.
        single_sim = PacketSimulation(topo, seed=3)
        single_sim.add_flow("h_0_0_1", "h_1_0_1", 4 * MB, paths=[background])
        single_sim.add_flow("h_0_0_0", "h_1_0_0", 2 * MB, path_index=2)
        single = single_sim.run()[1]
        assert single.retransmissions == 0

    def test_staggered_start(self, topo):
        sim = PacketSimulation(topo)
        sim.add_flow("h_0_0_0", "h_1_0_0", 1 * MB, start_time_s=0.5)
        result = sim.run()[0]
        assert result.fct_s < 0.5  # FCT excludes the waiting time

    def test_validation_errors(self, topo):
        sim = PacketSimulation(topo)
        with pytest.raises(ConfigurationError):
            sim.run()  # no flows
        with pytest.raises(ConfigurationError):
            sim.add_flow("h_0_0_0", "h_1_0_0", 0.0)


class TestFluidAgreement:
    """The validation the whole fluid substitution rests on."""

    @pytest.mark.parametrize("scenario", ["single", "shared_access", "cross_core"])
    def test_fct_tracks_fluid_model(self, topo, scenario):
        placements = {
            "single": [("h_0_0_0", "h_1_0_0", 0)],
            "shared_access": [("h_0_0_0", "h_1_0_0", 0), ("h_0_0_0", "h_2_0_0", 2)],
            "cross_core": [("h_0_0_0", "h_1_0_0", 0), ("h_0_1_0", "h_1_1_0", 0)],
        }[scenario]
        size = 4 * MB

        packet_sim = PacketSimulation(topo)
        for src, dst, index in placements:
            packet_sim.add_flow(src, dst, size, path_index=index)
        packet_mean = sum(r.fct_s for r in packet_sim.run()) / len(placements)

        fluid_net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        ftopo = fluid_net.topology
        for src, dst, index in placements:
            paths = ftopo.equal_cost_paths(ftopo.tor_of(src), ftopo.tor_of(dst))
            fluid_net.start_flow(src, dst, size, [fluid_net.component(src, dst, paths, index)])
        fluid_net.engine.run_until_idle()
        fluid_mean = sum(r.fct for r in fluid_net.records) / len(placements)

        assert packet_mean == pytest.approx(fluid_mean, rel=0.35), scenario
