"""Tests for the columnar FlowStore and the Flow view binding.

Covers the store's row lifecycle (revival, growth, compaction epochs),
the Flow view object's identity with the store columns through reroute
and retransmission penalties, and the store passes against the scalar
settle twin on live networks.
"""

import math

import numpy as np
import pytest

from repro.common.errors import InvariantViolation, SimulationError
from repro.common.units import MB, MBPS
from repro.simulator import FlowComponent, FlowStore, Network
from repro.simulator.flows import Flow
from repro.topology import FatTree
from repro.validation.twins import install_scalar_settle


@pytest.fixture
def net():
    return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))


def component(net, src, dst, index=0):
    topo = net.topology
    path = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))[index]
    return FlowComponent(topo.host_path(src, dst, path))


class TestRowLifecycle:
    def test_acquire_assigns_dense_rows(self):
        store = FlowStore()
        assert [store.acquire(fid) for fid in (10, 11, 12)] == [0, 1, 2]
        assert store.size == 3
        assert store.live_count == 3
        assert store.flow_id[:3].tolist() == [10, 11, 12]

    def test_release_then_revival_reuses_smallest_row(self):
        store = FlowStore()
        for fid in range(5):
            store.acquire(fid)
        store.release(3)
        store.release(1)
        assert store.live_count == 3
        # Pop-smallest: row 1 revives before row 3; span does not grow.
        assert store.acquire(100) == 1
        assert store.acquire(101) == 3
        assert store.acquire(102) == 5
        assert store.size == 6
        assert store.stats()["store_revivals"] == 2.0

    def test_revived_row_is_reset_to_fill_values(self):
        store = FlowStore()
        row = store.acquire(7)
        store.remaining_bytes[row] = 123.0
        store.retx_fraction[row] = 0.5
        store.goodput_factor[row] = 0.5
        store.elephant[row] = True
        store.release(row)
        assert store.acquire(8) == row
        assert store.remaining_bytes[row] == 0.0
        assert store.retx_fraction[row] == 0.0
        assert store.goodput_factor[row] == 1.0
        assert not store.elephant[row]
        assert store.flow_id[row] == 8
        assert store.live[row]

    def test_release_rejects_dead_and_out_of_range_rows(self):
        store = FlowStore()
        row = store.acquire(1)
        store.release(row)
        with pytest.raises(ValueError):
            store.release(row)
        with pytest.raises(ValueError):
            store.release(99)
        with pytest.raises(ValueError):
            store.release(-1)

    def test_geometric_growth(self):
        store = FlowStore(capacity=2)
        for fid in range(5):
            store.acquire(fid)
        assert store.size == 5
        assert store.capacity >= 5
        assert store.stats()["store_grows"] >= 1.0
        # Data survives the reallocation.
        assert store.flow_id[:5].tolist() == [0, 1, 2, 3, 4]

    def test_compaction_epoch_shrinks_span(self):
        store = FlowStore()
        rows = [store.acquire(fid) for fid in range(100)]
        # Release the top half plus one: live_count*2 <= size triggers.
        for row in rows[49:]:
            store.release(row)
        assert store.live_count == 49
        assert store.size == 49
        assert store.stats()["store_compactions"] >= 1.0
        # Rows below the new span never moved.
        assert store.flow_id[:49].tolist() == list(range(49))

    def test_compaction_keeps_pinned_high_live_row(self):
        store = FlowStore()
        rows = [store.acquire(fid) for fid in range(100)]
        # Keep the topmost row live: the span can only shrink to it.
        for row in rows[:99]:
            store.release(row)
        assert store.live_count == 1
        assert store.size == 100
        assert store.flow_id[99] == 99
        # Freed rows below stay revivable.
        assert store.acquire(500) == 0


class TestFlowViewBinding:
    def make_flow(self, size=1000.0):
        return Flow(
            flow_id=1, src="a", dst="c", size_bytes=size, start_time=0.0,
            components=[FlowComponent(("a", "b", "c"))],
        )

    def test_unbound_flow_uses_shadow_attributes(self):
        flow = self.make_flow()
        assert flow.store_row == -1
        flow.remaining_bytes = 400.0
        flow.retransmitted_bytes = 50.0
        flow.is_elephant = True
        flow.monitored_path_index = 3
        assert flow.remaining_bytes == 400.0
        assert flow.retransmitted_bytes == 50.0
        assert flow.is_elephant
        assert flow.monitored_path_index == 3
        assert flow.active

    def test_bind_pushes_state_and_properties_read_columns(self):
        store = FlowStore()
        flow = self.make_flow(size=2000.0)
        flow.component_rates = [30.0, 20.0]
        flow.reorder_retx_fraction = 0.25
        flow.bind_store(store, store.acquire(flow.flow_id))
        row = flow.store_row
        assert store.rate_bps[row] == 50.0
        assert store.retx_fraction[row] == 0.25
        assert store.goodput_factor[row] == 0.75
        assert store.remaining_bytes[row] == 2000.0
        # Writes through properties land in the columns...
        flow.remaining_bytes = 1500.0
        flow.path_switches = 2
        assert store.remaining_bytes[row] == 1500.0
        assert store.path_switches[row] == 2
        # ...and column writes are visible through the properties.
        store.retransmitted_bytes[row] = 64.0
        assert flow.retransmitted_bytes == 64.0

    def test_rate_and_goodput_equal_between_view_and_columns(self):
        store = FlowStore()
        flow = self.make_flow()
        flow.component_rates = [30.0, 20.0]
        flow.reorder_retx_fraction = 0.1
        unbound_rate = flow.rate_bps
        unbound_goodput = flow.goodput_bps
        flow.bind_store(store, store.acquire(flow.flow_id))
        row = flow.store_row
        assert flow.rate_bps == float(store.rate_bps[row]) == unbound_rate
        assert flow.goodput_bps == unbound_goodput
        assert flow.goodput_bps == float(
            store.rate_bps[row] * store.goodput_factor[row]
        )

    def test_fraction_setter_maintains_goodput_factor(self):
        store = FlowStore()
        flow = self.make_flow()
        flow.bind_store(store, store.acquire(flow.flow_id))
        row = flow.store_row
        flow.reorder_retx_fraction = 0.125
        assert store.goodput_factor[row] == 1.0 - 0.125

    def test_unbind_snapshot_survives_row_revival(self):
        store = FlowStore()
        flow = self.make_flow()
        flow.bind_store(store, store.acquire(flow.flow_id))
        row = flow.store_row
        flow.remaining_bytes = 0.0
        flow.end_time = 4.5
        flow.is_elephant = True
        flow.path_switches = 3
        flow.unbind_store()
        store.release(row)
        # Another flow revives the row and scribbles over every column.
        other = store.acquire(99)
        assert other == row
        store.end_time[other] = 77.0
        store.path_switches[other] = 9
        assert flow.store_row == -1
        assert flow.end_time == 4.5
        assert flow.is_elephant
        assert flow.path_switches == 3
        assert not flow.active

    def test_end_time_none_nan_round_trip(self):
        store = FlowStore()
        flow = self.make_flow()
        flow.bind_store(store, store.acquire(flow.flow_id))
        assert flow.end_time is None
        assert flow.active
        assert math.isnan(store.end_time[flow.store_row])
        flow.end_time = 2.0
        assert not flow.active
        flow.end_time = None
        assert flow.active

    def test_validation_still_raises_on_bad_construction(self):
        with pytest.raises(SimulationError):
            Flow(flow_id=1, src="a", dst="b", size_bytes=1.0,
                 start_time=0.0, components=[])


class TestNetworkIntegration:
    def test_started_flow_is_bound_and_coherent(self, net):
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        assert flow.store_row >= 0
        assert net.flow_store.live_count == 1
        net.engine.run_until(0.1)
        row = flow.store_row
        assert float(net.flow_store.rate_bps[row]) == sum(flow.component_rates)
        net.check_invariants()

    def test_view_identity_after_reroute_and_retx_penalty(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 10 * MB, [component(net, src, dst, 0)])
        net.engine.run_until(0.2)
        net.reroute_flow(flow, [component(net, src, dst, 1)])
        row = flow.store_row
        store = net.flow_store
        # The penalty went through the properties into the columns.
        assert flow.retransmitted_bytes == net.path_switch_retx_bytes
        assert float(store.retransmitted_bytes[row]) == flow.retransmitted_bytes
        assert float(store.remaining_bytes[row]) == flow.remaining_bytes
        assert flow.path_switches == 1 == int(store.path_switches[row])
        # Rates are zeroed in both views until the coalesced refill.
        assert float(store.rate_bps[row]) == sum(flow.component_rates) == 0.0
        net.engine.run_until_idle()
        net.check_invariants()

    def test_completion_releases_rows_and_revives_them(self, net):
        src = "h_0_0_0"
        for dst in ("h_1_0_0", "h_2_0_0"):
            net.start_flow(src, dst, 5 * MB, [component(net, src, dst)])
        net.engine.run_until_idle()
        assert net.flow_store.live_count == 0
        assert len(net.records) == 2
        # New flows revive the released rows instead of extending the span.
        flow = net.start_flow(src, "h_3_0_0", MB, [component(net, src, "h_3_0_0")])
        assert flow.store_row == 0
        assert net.flow_store.stats()["store_revivals"] >= 1.0

    def test_record_reads_after_completion_are_stable(self, net):
        done = []
        net.flow_completed_listeners.append(done.append)
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until_idle()
        # Start another flow so the released row is revived and scribbled.
        net.start_flow(
            "h_0_0_0", "h_2_0_0", 10 * MB, [component(net, "h_0_0_0", "h_2_0_0")]
        )
        net.engine.run_until(0.1)
        (finished,) = done
        assert finished.store_row == -1
        assert finished.end_time == net.records[0].end_time
        assert finished.remaining_bytes <= 1.0
        assert not finished.active

    def test_reference_mode_matches_store_mode_records(self):
        def run(scalar):
            net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
            if scalar:
                install_scalar_settle(net)
            src = "h_0_0_0"
            for i, dst in enumerate(("h_1_0_0", "h_2_0_0", "h_3_0_0")):
                net.start_flow(src, dst, (i + 1) * 4 * MB, [component(net, src, dst)])
            flows = net.active_flows()
            net.engine.schedule_at(
                0.3, lambda: net.reroute_flow(flows[1], [component(net, src, "h_2_0_0", 1)])
            )
            net.engine.run_until_idle()
            net.check_invariants()
            return net.records

        store_records = run(scalar=False)
        reference_records = run(scalar=True)
        assert store_records == reference_records  # bit-exact, not approx

    def test_invariants_catch_rate_column_corruption(self, net):
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until(0.1)
        net.flow_store.rate_bps[flow.store_row] = math.nextafter(
            float(net.flow_store.rate_bps[flow.store_row]), math.inf
        )
        with pytest.raises(InvariantViolation):
            net.check_invariants()

    def test_perf_stats_exposes_store_and_settle_keys(self, net):
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until_idle()
        stats = net.perf_stats()
        for key in ("store_rows", "store_capacity", "store_live",
                    "store_acquires", "store_revivals", "store_grows",
                    "store_compactions", "settle_time_s", "eta_time_s",
                    "settle_batches"):
            assert key in stats, key
        assert stats["store_acquires"] == 1.0
        assert stats["store_live"] == 0.0
        assert stats["settle_batches"] >= 1


class TestStoreScale:
    def test_many_churning_flows_keep_span_bounded(self, net):
        # Bursty arrivals and completions: the span must track the live
        # population (compaction epochs), not the all-time flow count.
        rng = np.random.default_rng(0)
        hosts = sorted(net.topology.hosts())
        half = len(hosts) // 2
        sources, sinks = hosts[:half], hosts[half:]  # always inter-pod pairs
        for wave in range(4):
            for _ in range(40):
                src = str(rng.choice(sources))
                dst = str(rng.choice(sinks))
                net.start_flow(src, dst, 0.2 * MB, [component(net, src, dst)])
            net.engine.run_until_idle()
        assert net.flow_store.live_count == 0
        assert len(net.records) == 160
        assert net.flow_store.size < 160
        net.check_invariants()
