"""Component-scoped reallocation: equivalence and telemetry.

The contract under test is bit-exactness: the network's component-scoped
refill must produce exactly the flow records — same ids, same start/end
times to the last float bit, same path switches — as the same scenario
re-filled globally on every membership change, which the
:data:`~repro.validation.twins.FULL_REFILL` twin runs. The fuzz-backed
cases route every event through the live differential oracle
(:func:`~repro.validation.oracles.check_incremental_against_full`) as
well, so a splice bug fails at the event where it happens, not at the end.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MB, MBPS
from repro.experiments.runner import ScenarioConfig
from repro.simulator import Network
from repro.simulator.components import FlowLinkComponents
from repro.topology import FatTree
from repro.validation.fuzz import random_scenario, run_case
from repro.validation.oracles import check_incremental_against_full
from repro.validation.twins import (
    FULL_REFILL,
    install_full_refill,
    path_state_scalar,
    twin_run,
)

BASE = ScenarioConfig(
    topology="fattree",
    topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
    pattern="stride",
    scheduler="ecmp",
    arrival_rate_per_host=0.08,
    duration_s=12.0,
    flow_size_bytes=16 * MB,
    seed=5,
)


def _stride_network(full_refill=False):
    """A p=4 network with one pod-0 flow and one pod-2<->3 flow.

    The two flows share no link, so they live in different flow-link
    components and membership changes to one leave the other untouched.
    ``full_refill`` installs the global-fill reference twin first.
    """
    net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
    if full_refill:
        install_full_refill(net)
    topo = net.topology
    flows = []
    # Different sizes so the completions are staggered: each completion
    # then dirties one component while the other flow is still live.
    for src, dst, size in (
        ("h_0_0_0", "h_0_1_0", 16e6),
        ("h_2_0_0", "h_3_0_0", 64e6),
    ):
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        flows.append(net.start_flow(src, dst, size, [net.component(src, dst, paths, 0)]))
    net.engine.run_until(0.001)
    return net, flows


def _component_of(comps, flow_id):
    """Ids of the live flows connected to ``flow_id`` through shared links."""
    link_flows, flow_links = comps.link_flows(), comps.flow_links()
    seen, stack = {flow_id}, [flow_id]
    while stack:
        for link in flow_links[stack.pop()]:
            for other in link_flows[link] - seen:
                seen.add(other)
                stack.append(other)
    return seen


class TestEquivalence:
    @pytest.mark.parametrize("scheduler", ["ecmp", "dard", "vlb"])
    def test_records_identical_across_modes(self, scheduler):
        # twin_run raises unless the global-fill run's records, shift
        # journal and every other result field are identical.
        config = dataclasses.replace(BASE, scheduler=scheduler)
        assert twin_run(config, FULL_REFILL).records

    def test_records_identical_with_link_failures(self):
        config = dataclasses.replace(
            BASE,
            scheduler="dard",
            link_events=(
                ("fail", 2.0, "agg_0_0", "core_0_0"),
                ("restore", 6.0, "agg_0_0", "core_0_0"),
                ("fail", 8.0, "tor_1_0", "agg_1_0"),
            ),
        )
        assert twin_run(config, FULL_REFILL).records

    def test_fuzz_cases_pass_live_oracle(self):
        # run_case attaches check_incremental_against_full to the
        # after-event hook; seed 1 is failure-free, seed 0 schedules
        # fail/restore events (guarded by the assertion below).
        for seed in (1, 0):
            run_case(random_scenario(seed))
        assert random_scenario(0).link_events

    def test_oracle_catches_a_corrupted_rate(self):
        from repro.common.errors import OracleViolation
        import math

        net, flows = _stride_network()
        check_incremental_against_full(net)  # clean
        flows[0].component_rates[0] = math.nextafter(
            flows[0].component_rates[0], float("inf")
        )
        with pytest.raises(OracleViolation):
            check_incremental_against_full(net)


class TestTelemetry:
    def test_disjoint_flows_fill_a_strict_subset(self):
        net, flows = _stride_network()
        stats = net.perf_stats()
        base_subset = stats["realloc_subset"]
        # Completing the pod-0 flow dirties only its component.
        net.engine.run_until_idle(hard_limit=60.0)
        stats = net.perf_stats()
        assert stats["realloc_incremental"] > 0
        assert stats["realloc_subset"] > base_subset
        assert stats["flows_preserved"] > 0
        assert stats["realloc_full"] + stats["realloc_incremental"] == stats["realloc_calls"]

    def test_failure_refills_only_the_failed_cables_component(self):
        net, flows = _stride_network()
        # A switch-switch cable on the pod-0 flow's path.
        u, v = net.topology.host_path_at(
            flows[0].src, flows[0].dst, flows[0].components[0].index
        )[1:3]
        other_rates = flows[1].component_rates
        for transition, stalled in ((net.fail_link, True), (net.restore_link, False)):
            before = net.perf_stats()
            transition(u, v)
            after = net.perf_stats()
            assert after["realloc_full"] == before["realloc_full"]
            assert after["realloc_incremental"] == before["realloc_incremental"] + 1
            assert (flows[0].component_rates[0] == 0.0) is stalled
            assert flows[1].component_rates is other_rates
            check_incremental_against_full(net)

    def test_full_mode_never_goes_incremental(self):
        net, _ = _stride_network(full_refill=True)
        net.engine.run_until_idle(hard_limit=60.0)
        stats = net.perf_stats()
        assert stats["realloc_incremental"] == 0
        assert stats["realloc_full"] == stats["realloc_calls"]


class TestComponentStructure:
    def test_attach_detach_membership(self):
        comps = FlowLinkComponents()
        comps.attach(1, np.array([0, 1], dtype=np.intp))
        comps.attach(2, np.array([3, 4], dtype=np.intp))
        assert comps.consume_dirty() == (2, [1, 2])
        # A flow spanning both joins them into one component.
        comps.attach(3, np.array([1, 3], dtype=np.intp))
        assert comps.consume_dirty() == (1, [1, 2, 3])
        # Its departure disconnects them again, at once: the links it left
        # now belong to two components.
        comps.detach(3)
        assert comps.consume_dirty() == (2, [1, 2])
        assert comps.link_flows() == {0: {1}, 1: {1}, 3: {2}, 4: {2}}
        assert comps.flow_links() == {1: [0, 1], 2: [3, 4]}

    def test_touch_dirties_a_cable_and_names_its_flows_links(self):
        comps = FlowLinkComponents()
        comps.attach(1, np.array([0, 1], dtype=np.intp))
        comps.attach(2, np.array([3, 4], dtype=np.intp))
        comps.attach(3, np.array([1, 5], dtype=np.intp))
        comps.consume_dirty()
        # Link 7 carries no flow: it names nothing and walks nothing.
        assert comps.touch([0, 7]) == [0, 1]
        assert comps.consume_dirty() == (1, [1, 3])
        assert comps.touch([9]) == []
        assert comps.consume_dirty() == (0, [])
        # Touching changes no membership.
        assert comps.flow_links() == {1: [0, 1], 2: [3, 4], 3: [1, 5]}

    def test_consume_dirty_returns_component_flows(self):
        comps = FlowLinkComponents()
        comps.attach(7, np.array([0, 1], dtype=np.intp))
        comps.attach(8, np.array([2, 3], dtype=np.intp))
        touched, flow_ids = comps.consume_dirty()
        assert touched == 2 and flow_ids == [7, 8]
        # Consuming clears the dirty set.
        assert comps.consume_dirty() == (0, [])
        # Only the component a change touches comes back.
        comps.attach(9, np.array([1, 5], dtype=np.intp))
        assert comps.consume_dirty() == (1, [7, 9])
        # Links a departure leaves empty name no component.
        comps.detach(8)
        assert comps.consume_dirty() == (0, [])
        assert 2 not in comps.link_flows() and 3 not in comps.link_flows()

    def test_departure_splits_a_live_network_component(self):
        net, flows = _stride_network()
        topo = net.topology
        # A bridge flow shares the first flow's source access link and the
        # second flow's destination access link, joining them.
        src, dst = "h_0_0_0", "h_3_0_0"
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        bridge = net.start_flow(src, dst, 1e6, [net.component(src, dst, paths, 0)])
        comps = net._components
        assert flows[1].flow_id in _component_of(comps, flows[0].flow_id)
        # The bridge (1 MB) finishes first; its departure splits them, so
        # the refill it triggers re-rates both halves as two components.
        touched = net.perf_stats()["components_touched"]
        net.engine.run_until(net.engine.now + 1.0)
        assert not bridge.active and flows[0].active and flows[1].active
        assert flows[1].flow_id not in _component_of(comps, flows[0].flow_id)
        assert net.perf_stats()["components_touched"] == touched + 1 + 2
        net.check_invariants()

    def test_invariants_catch_a_stale_index_entry(self):
        from repro.common.errors import InvariantViolation

        net, flows = _stride_network()
        net.check_invariants()
        comps = net._components
        # A departed flow left on one link: a stale id the walk would
        # follow into a dead flow.
        link = int(flows[0].unique_link_ids[0])
        comps._link_flows[link].add(99)
        with pytest.raises(InvariantViolation, match="component-index"):
            net.check_invariants()
        comps._link_flows[link].discard(99)
        net.check_invariants()
        # An empty entry left behind by a detach.
        used = {int(link) for flow in flows for link in flow.unique_link_ids}
        idle = next(link for link in range(len(net.link_index)) if link not in used)
        comps._link_flows[idle] = set()
        with pytest.raises(InvariantViolation, match="component-index"):
            net.check_invariants()


def _brute_force_dirty(live_links, touched):
    """Components of the live flow-link graph that contain a touched link.

    Merges flow groups sharing any link until nothing changes — a
    from-scratch fixpoint, independent of the index and its walk.
    """
    groups = [({flow_id}, set(links)) for flow_id, links in live_links.items()]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i][1] & groups[j][1]:
                    groups[i] = (groups[i][0] | groups[j][0], groups[i][1] | groups[j][1])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    hit = [flow_ids for flow_ids, links in groups if links & touched]
    return len(hit), sorted(set().union(*hit))


_ops = st.lists(
    st.tuples(
        st.sampled_from(["attach", "detach", "reroute", "consume"]),
        st.integers(min_value=0, max_value=1_000),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=4),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_consume_dirty_matches_brute_force_search(ops):
    comps = FlowLinkComponents()
    live = {}
    touched = set()
    next_id = 0
    for kind, pick, links in ops + [("consume", 0, [0])]:
        links = sorted(set(links))
        if kind == "attach" or (kind != "consume" and not live):
            comps.attach(next_id, np.array(links, dtype=np.intp))
            live[next_id] = links
            touched.update(links)
            next_id += 1
        elif kind == "consume":
            assert comps.consume_dirty() == _brute_force_dirty(live, touched)
            touched = set()
        else:
            flow_id = sorted(live)[pick % len(live)]
            comps.detach(flow_id)
            touched.update(live.pop(flow_id))
            if kind == "reroute":
                comps.attach(flow_id, np.array(links, dtype=np.intp))
                live[flow_id] = links
                touched.update(links)
        expected = {}
        for flow_id, flow_links in live.items():
            for link in flow_links:
                expected.setdefault(link, set()).add(flow_id)
        assert comps.link_flows() == expected
        assert comps.flow_links() == live


def _pair_hops(net, paths):
    """The ``(paths, hops)`` link-id matrix of a pair's switch paths."""
    return np.array([net.link_index.index_path(path) for path in paths], dtype=np.intp)


class TestBatchPathState:
    def test_batch_matches_scalar_path_state(self):
        # Elephants on two of the paths and a failed cable on a third give
        # the rows different bottlenecks, so each pick is a real minimum.
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS), elephant_age_s=0.0005)
        topo = net.topology
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        for src, dst, k in (
            ("h_0_0_0", "h_1_0_0", 0),
            ("h_0_0_1", "h_1_0_1", 0),
            ("h_0_0_0", "h_1_0_1", 1),
        ):
            net.start_flow(src, dst, 64e6, [net.component(src, dst, paths, k)])
        net.engine.run_until(0.001)
        net.fail_link(*paths[2][1:3])
        band, eleph = net.batch_path_state_arrays(_pair_hops(net, paths))
        for k, path in enumerate(paths):
            scalar = path_state_scalar(net, path)
            assert (band[k], eleph[k]) == (scalar.bandwidth_bps, scalar.flow_numbers)
        assert len(set(zip(band.tolist(), eleph.tolist()))) == 3

    def test_tied_bottlenecks_report_the_first_hop(self):
        # Two failed cables on one path tie at BoNF 0, but the later one
        # carries an extra elephant: the path reports the first hop's count.
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS), elephant_age_s=0.0005)
        topo = net.topology
        paths = topo.equal_cost_paths("tor_0_0", "tor_1_0")
        path = paths[0]
        # The second flow joins the path at its aggregation switch, so it
        # crosses the core hop but not the ToR uplink.
        others = topo.equal_cost_paths("tor_0_1", "tor_1_0")
        other = next(i for i, p in enumerate(others) if p[1:] == path[1:])
        for src, dst, pair_paths, index in (
            ("h_0_0_0", "h_1_0_0", paths, 0),
            ("h_0_1_0", "h_1_0_1", others, other),
        ):
            net.start_flow(src, dst, 64e6, [net.component(src, dst, pair_paths, index)])
        net.engine.run_until(0.001)
        first, later = path[0:2], path[2:4]
        net.fail_link(*first)
        net.fail_link(*later)
        assert net.link_state(*first).elephant_flows == 1
        assert net.link_state(*later).elephant_flows == 2
        band, eleph = net.batch_path_state_arrays(_pair_hops(net, [path]))
        assert (band.tolist(), eleph.tolist()) == ([0.0], [1])
        first_state = net.link_state(*first)
        assert (band[0], eleph[0]) == (first_state.bandwidth_bps, first_state.elephant_flows)
        scalar = path_state_scalar(net, path)
        assert (band[0], eleph[0]) == (scalar.bandwidth_bps, scalar.flow_numbers)

    def test_empty_rows_are_rejected(self):
        from repro.common.errors import SimulationError

        net, _ = _stride_network()
        with pytest.raises(SimulationError):
            net.batch_path_state_arrays(np.empty((2, 0), dtype=np.intp))
