"""Tests for the columnar FlowStore and the Flow views of its rows.

Covers the dense store's row lifecycle (append, release by moving the
last row into the hole, growth), the Flow view object's identity with
its row through reroute and retransmission penalties, the one-row copy a
finished flow reads (and frees by reference counting alone), and the
store passes against the scalar settle twin on live networks.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.common.errors import InvariantViolation, SimulationError
from repro.common.units import MB, MBPS
from repro.simulator import FlowComponent, FlowStore, Network
from repro.simulator.flows import PATH_SWITCH_RETX_BYTES, Flow
from repro.topology import FatTree
from repro.validation import InvariantChecker
from repro.validation.twins import install_scalar_settle


@pytest.fixture
def net():
    return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))


def component(net, src, dst, index=0):
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return net.component(src, dst, paths, index)


def make_flow(store, flow_id=1, size=1000.0):
    return Flow(
        flow_id=flow_id, src="a", dst="c", size_bytes=size, start_time=0.0,
        components=[FlowComponent(0, [0, 1])], store=store,
    )


def make_flows(store, flow_ids):
    return [make_flow(store, flow_id=fid) for fid in flow_ids]


class TestRowLifecycle:
    def test_acquire_assigns_dense_rows(self):
        store = FlowStore()
        flows = make_flows(store, (10, 11, 12))
        assert [flow.store_row for flow in flows] == [0, 1, 2]
        assert store.size == 3
        assert store.flow_id[:3].tolist() == [10, 11, 12]

    def test_release_then_revival_reuses_smallest_row(self):
        store = FlowStore()
        flows = make_flows(store, range(5))
        store.release(flows[3].store_row)
        store.release(flows[1].store_row)
        assert store.size == 3
        # The span is dense, so the smallest free row is the first past it.
        assert make_flow(store, flow_id=100).store_row == 3
        assert make_flow(store, flow_id=101).store_row == 4
        assert store.size == 5
        # Each release moved the last row into its hole.
        assert store.flow_id[:5].tolist() == [0, 4, 2, 100, 101]

    def test_revived_row_is_reset_to_fill_values(self):
        store = FlowStore()
        flow = make_flow(store, flow_id=7)
        row = flow.store_row
        store.remaining_bytes[row] = 123.0
        store.retx_fraction[row] = 0.5
        store.elephant[row] = True
        store.end_time[row] = 3.0
        store.release(row)
        other = make_flow(store, flow_id=8, size=64.0)
        assert other.store_row == row
        assert store.remaining_bytes[row] == 64.0
        assert store.retx_fraction[row] == 0.0
        assert not store.elephant[row]
        assert math.isnan(store.end_time[row])
        assert store.flow_id[row] == 8

    def test_release_rejects_dead_and_out_of_range_rows(self):
        store = FlowStore()
        row = make_flow(store).store_row
        store.release(row)
        with pytest.raises(ValueError):
            store.release(row)
        with pytest.raises(ValueError):
            store.release(99)
        with pytest.raises(ValueError):
            store.release(-1)

    def test_geometric_growth(self):
        store = FlowStore(capacity=2)
        flows = make_flows(store, range(5))
        assert store.size == 5
        assert store.capacity == 8  # 2 -> 4 -> 8
        # Data survives the reallocation, and the views still read it.
        assert store.flow_id[:5].tolist() == [0, 1, 2, 3, 4]
        assert [flow.remaining_bytes for flow in flows] == [1000.0] * 5

    def test_release_shrinks_the_span_at_once(self):
        store = FlowStore()
        flows = make_flows(store, range(100))
        for flow in flows[49:]:
            store.release(flow.store_row)
        assert store.size == 49
        # Releasing the top rows moves nothing below them.
        assert store.flow_id[:49].tolist() == list(range(49))
        assert [flow.store_row for flow in flows[:49]] == list(range(49))

    def test_release_moves_the_last_row_into_the_hole(self):
        store = FlowStore()
        flows = make_flows(store, range(5))
        top = flows[4]
        store.rate_bps[top.store_row] = 7.0
        top.remaining_bytes = 321.0
        top.retransmitted_bytes = 12.0
        top.reorder_retx_fraction = 0.25
        top.is_elephant = True
        top.path_switches = 2
        store.release(flows[1].store_row)
        assert store.size == 4
        # The last flow now views the hole, with every column moved.
        assert top.store_row == 1
        assert store.flow_id[:4].tolist() == [0, 4, 2, 3]
        assert (
            top.rate_bps, top.remaining_bytes, top.retransmitted_bytes,
            top.reorder_retx_fraction, top.is_elephant, top.path_switches,
            top.active,
        ) == (7.0, 321.0, 12.0, 0.25, True, 2, True)
        # Rows [0, size) are exactly the live flows, each viewing its own.
        for flow in (flows[0], flows[2], flows[3], top):
            assert store.flow_id[flow.store_row] == flow.flow_id


class TestFlowViewBinding:
    def test_standalone_flow_views_its_own_row(self):
        store = FlowStore()
        flow = make_flow(store)
        assert flow.store_row == 0
        assert store.size == 1
        flow.remaining_bytes = 400.0
        flow.retransmitted_bytes = 50.0
        flow.is_elephant = True
        assert flow.remaining_bytes == 400.0 == store.remaining_bytes[0]
        assert flow.retransmitted_bytes == 50.0 == store.retransmitted_bytes[0]
        assert flow.is_elephant and store.elephant[0]
        assert flow.active

    def test_bind_pushes_state_and_properties_read_columns(self):
        store = FlowStore()
        flow = make_flow(store, size=2000.0)
        row = flow.store_row
        # Construction writes the flow id and size; the rest is fresh.
        assert store.flow_id[row] == flow.flow_id
        assert store.remaining_bytes[row] == 2000.0
        assert store.rate_bps[row] == 0.0
        assert not store.elephant[row] and store.path_switches[row] == 0
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
        flow = make_flow(store)
        row = flow.store_row
        store.rate_bps[row] = 50.0
        flow.reorder_retx_fraction = 0.1
        assert flow.rate_bps == float(store.rate_bps[row]) == 50.0
        assert flow.goodput_bps == 50.0 * (1.0 - 0.1)
        # The ETA pass's row-wise product gives the same bits.
        assert flow.goodput_bps == float(
            (store.rate_bps[:1] * (1.0 - store.retx_fraction[:1]))[0]
        )

    def test_fraction_setter_maintains_goodput_factor(self):
        store = FlowStore()
        flow = make_flow(store)
        store.rate_bps[flow.store_row] = 8.0
        flow.reorder_retx_fraction = 0.125
        assert store.retx_fraction[flow.store_row] == 0.125
        assert flow.goodput_bps == 8.0 * (1.0 - 0.125)

    def test_unbind_snapshot_survives_row_revival(self):
        store = FlowStore()
        flow = make_flow(store)
        row = flow.store_row
        flow.remaining_bytes = 0.0
        flow.end_time = 4.5
        flow.is_elephant = True
        flow.path_switches = 3
        store.release(row)
        # Another flow reuses the row and scribbles over every column.
        other = make_flow(store, flow_id=99)
        assert other.store_row == row
        store.end_time[row] = 77.0
        store.path_switches[row] = 9
        assert flow.end_time == 4.5
        assert flow.is_elephant
        assert flow.path_switches == 3
        assert not flow.active

    def test_finished_flow_is_freed_by_reference_counting(self, net):
        # The one-row copy must not reference its flow: a cycle would
        # keep every finished flow alive until a collector pass.
        src, dst = "h_0_0_0", "h_1_0_0"
        store = FlowStore()
        standalone = make_flow(store)
        flow = net.start_flow(src, dst, MB, [component(net, src, dst)])
        refs = [weakref.ref(standalone), weakref.ref(flow)]
        gc.disable()
        try:
            store.release(standalone.store_row)
            net.engine.run_until_idle()
            assert len(net.records) == 1
            del standalone, flow
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_end_time_none_nan_round_trip(self):
        store = FlowStore()
        flow = make_flow(store)
        assert flow.end_time is None
        assert flow.active
        assert math.isnan(store.end_time[flow.store_row])
        flow.end_time = 2.0
        assert not flow.active
        flow.end_time = None
        assert flow.active

    def test_validation_still_raises_on_bad_construction(self):
        store = FlowStore()
        with pytest.raises(SimulationError):
            Flow(flow_id=1, src="a", dst="b", size_bytes=1.0,
                 start_time=0.0, components=[], store=store)
        assert store.size == 0  # a rejected flow takes no row


class TestNetworkIntegration:
    def test_started_flow_is_bound_and_coherent(self, net):
        flow = net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        assert flow.store_row == 0
        assert net.flow_store.size == 1
        net.engine.run_until(0.1)
        row = flow.store_row
        assert float(net.flow_store.rate_bps[row]) == sum(flow.component_rates)
        InvariantChecker(net).run_checks()

    def test_view_identity_after_reroute_and_retx_penalty(self, net):
        src, dst = "h_0_0_0", "h_1_0_0"
        flow = net.start_flow(src, dst, 10 * MB, [component(net, src, dst, 0)])
        net.engine.run_until(0.2)
        net.reroute_flow(flow, [component(net, src, dst, 1)])
        row = flow.store_row
        store = net.flow_store
        # The penalty went through the properties into the columns.
        assert flow.retransmitted_bytes == PATH_SWITCH_RETX_BYTES
        assert float(store.retransmitted_bytes[row]) == flow.retransmitted_bytes
        assert float(store.remaining_bytes[row]) == flow.remaining_bytes
        assert flow.path_switches == 1 == int(store.path_switches[row])
        # Rates are zeroed in both views until the coalesced refill.
        assert float(store.rate_bps[row]) == sum(flow.component_rates) == 0.0
        net.engine.run_until_idle()
        InvariantChecker(net).run_checks()

    def test_completion_releases_rows_and_revives_them(self, net):
        src = "h_0_0_0"
        for dst in ("h_1_0_0", "h_2_0_0"):
            net.start_flow(src, dst, 5 * MB, [component(net, src, dst)])
        net.engine.run_until_idle()
        assert net.flow_store.size == 0
        assert len(net.records) == 2
        # New flows reuse the released rows instead of extending the span.
        flow = net.start_flow(src, "h_3_0_0", MB, [component(net, src, "h_3_0_0")])
        assert flow.store_row == 0
        assert net.flow_store.size == 1

    def test_record_reads_after_completion_are_stable(self, net):
        done = []
        net.flow_completed_listeners.append(done.append)
        net.start_flow(
            "h_0_0_0", "h_1_0_0", 10 * MB, [component(net, "h_0_0_0", "h_1_0_0")]
        )
        net.engine.run_until_idle()
        # Start another flow so the released row is reused and scribbled.
        other = net.start_flow(
            "h_0_0_0", "h_2_0_0", 10 * MB, [component(net, "h_0_0_0", "h_2_0_0")]
        )
        net.engine.run_until(0.1)
        (finished,) = done
        assert other.store_row == 0
        assert finished.store_row == 0  # row 0 of its own one-row copy
        assert finished.end_time == net.records[0].end_time
        assert finished.remaining_bytes <= 1.0
        assert not finished.active
        assert other.active

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
            InvariantChecker(net).run_checks()
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
            InvariantChecker(net).run_checks()

    def test_invariants_catch_a_flow_viewing_the_wrong_row(self, net):
        src = "h_0_0_0"
        flows = [
            net.start_flow(src, dst, 10 * MB, [component(net, src, dst)])
            for dst in ("h_1_0_0", "h_2_0_0")
        ]
        net.engine.run_until(0.1)
        InvariantChecker(net).run_checks()
        flows[1]._row = 2  # past the live rows, as if a move forgot it
        with pytest.raises(InvariantViolation) as caught:
            InvariantChecker(net).run_checks()
        assert caught.value.invariant == "flow-store"
        flows[1]._row = 0  # a live row, but another flow's
        with pytest.raises(InvariantViolation) as caught:
            InvariantChecker(net).run_checks()
        assert caught.value.invariant == "flow-store"


class TestStoreScale:
    def test_many_churning_flows_keep_span_bounded(self, net):
        # Bursty arrivals and completions: the span tracks the live
        # population exactly, not the all-time flow count.
        rng = np.random.default_rng(0)
        hosts = sorted(net.topology.hosts())
        half = len(hosts) // 2
        sources, sinks = hosts[:half], hosts[half:]  # always inter-pod pairs
        for wave in range(4):
            for _ in range(40):
                src = str(rng.choice(sources))
                dst = str(rng.choice(sinks))
                net.start_flow(src, dst, 0.2 * MB, [component(net, src, dst)])
            net.engine.run_until(net.now + 0.5)
            assert net.flow_store.size == len(net.flows)
            InvariantChecker(net).run_checks()
            net.engine.run_until_idle()
        assert net.flow_store.size == 0
        assert len(net.records) == 160
        assert net.flow_store.capacity <= 64
        InvariantChecker(net).run_checks()
