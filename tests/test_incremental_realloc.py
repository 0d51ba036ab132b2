"""Bottleneck-region reallocation: equivalence and telemetry.

The contract under test is bit-exactness: the network's region refill
must produce exactly the flow records — same ids, same start/end times
to the last float bit, same path switches — as the same scenario
re-filled globally on every membership change, which the
:data:`~repro.validation.twins.FULL_REFILL` twin runs. The fuzz-backed
cases and the property test route every step through the live
differential oracle
(:func:`~repro.validation.oracles.check_incremental_against_full`) as
well — rates, loads and saturation shares — so a splice or replay bug
fails at the step where it happens, not at the end.
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
from repro.simulator.reordering import reordering_retx_fraction_indexed
from repro.topology import FatTree
from repro.validation import InvariantChecker
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


def _fattree():
    return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))


def _via(net, src, dst, core, weight=1.0):
    """The component from ``src`` to ``dst`` whose path crosses ``core``."""
    topo = net.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    index = next(k for k, path in enumerate(paths) if core in path)
    return net.component(src, dst, paths, index, weight)


def _start(net, src, dst, core, size=64e6):
    return net.start_flow(src, dst, size, [_via(net, src, dst, core)])


def _settled(net):
    """Run the pending zero-delay refill, then the invariant battery, which
    audits it against a global fill."""
    net.engine.run_until(net.now)
    InvariantChecker(net).run_checks()
    return net.perf_stats()


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
        # run_case's battery runs check_incremental_against_full off the
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

    def test_oracle_catches_a_stale_saturation_share(self):
        from repro.common.errors import OracleViolation
        import math

        net, flows = _stride_network()
        link = int(flows[0].unique_link_ids[0])
        share = net._sat_levels[link]
        assert share < float("inf")
        net._sat_levels[link] = math.nextafter(share, 0.0)
        with pytest.raises(OracleViolation, match="saturation share"):
            check_incremental_against_full(net)
        net._sat_levels[link] = share
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
        assert stats["realloc_full"] == 0  # production makes no global fill

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
        assert comps.attach(1, [0, 1]) == [0, 1]
        comps.attach(2, [3, 4])
        comps.attach(3, [1, 3])
        assert comps.flows_on([1]) == {1, 3}
        assert comps.flows_on([0, 4, 9]) == {1, 2}
        assert comps.links_of([1, 2]) == {0, 1, 3, 4}
        # A departure returns the links whose flow sets it changed, split
        # into those other flows still cross and those it left empty, and
        # leaves no empty entry behind.
        assert comps.detach(3) == ([1, 3], [])
        assert comps.link_flows() == {0: {1}, 1: {1}, 3: {2}, 4: {2}}
        assert comps.flow_links() == {1: [0, 1], 2: [3, 4]}
        assert (comps.flow_count(1), comps.flow_count(9)) == (1, 0)
        assert comps.detach(2) == ([], [3, 4])
        assert comps.link_flows() == {0: {1}, 1: {1}}

    def test_invariants_catch_a_stale_index_entry(self):
        from repro.common.errors import InvariantViolation

        net, flows = _stride_network()
        InvariantChecker(net).run_checks()
        comps = net._components
        # A departed flow left on one link: a stale id a region would
        # pull into the boundary.
        link = int(flows[0].unique_link_ids[0])
        comps._link_flows[link].add(99)
        with pytest.raises(InvariantViolation, match="component-index"):
            InvariantChecker(net).run_checks()
        comps._link_flows[link].discard(99)
        InvariantChecker(net).run_checks()
        # An empty entry left behind by a detach.
        used = {int(link) for flow in flows for link in flow.unique_link_ids}
        idle = next(link for link in range(len(net.link_index)) if link not in used)
        comps._link_flows[idle] = set()
        with pytest.raises(InvariantViolation, match="component-index"):
            InvariantChecker(net).run_checks()


class TestBottleneckRegion:
    """Hand-built regions: what a change re-rates, and what reruns it."""

    def test_departure_from_unsaturated_core_rerates_nothing_past_saturation(self):
        net = _fattree()
        # Five flows from h_0_1_0 hold each other to 20 Mbps at its access
        # link; one of them, A, shares core_0_0 with D.
        crowd = [
            _start(net, "h_0_1_0", dst, core)
            for dst, core in (
                ("h_1_1_0", "core_0_0"),
                ("h_2_0_0", "core_0_1"),
                ("h_2_1_0", "core_1_0"),
                ("h_3_0_0", "core_1_1"),
                ("h_3_1_0", "core_1_0"),
            )
        ]
        a = crowd[0]
        # D and its host-mate E split h_0_0_0's access link at 50 Mbps;
        # D is small, so it leaves first. core_0_0 carries 20 + 50 < 100.
        d = _start(net, "h_0_0_0", "h_1_0_0", "core_0_0", size=1e6)
        e = _start(net, "h_0_0_0", "h_2_0_1", "core_1_0")
        _settled(net)
        core_links = [
            net.link_index.id_of(link)
            for link in (("agg_0_0", "core_0_0"), ("core_0_0", "agg_1_0"))
        ]
        assert all(net._sat_levels[link] == float("inf") for link in core_links)
        before = net.perf_stats()
        kept = {flow.flow_id: flow.component_rates for flow in crowd}
        net.engine.run_until(net.now + 0.5)
        after = _settled(net)
        assert not d.active and e.active
        # E alone joins the region (D's saturated access link) and rises
        # to what core_1_0 leaves it beside two crowd flows. A rides the
        # unsaturated core link D left as pinned boundary, and so do the
        # crowd flows E meets: no crowd flow is re-rated.
        assert after["flows_rerated"] - before["flows_rerated"] == 1
        assert after["realloc_reruns"] == before["realloc_reruns"]
        assert all(flow.component_rates is kept[flow.flow_id] for flow in crowd)
        assert e.component_rates == [60e6]
        assert a.component_rates == [20e6]

    def test_two_hop_cascade_forces_reruns(self):
        net = _fattree()
        # X and Z split h_0_0_0's access link at 50 Mbps; X crosses
        # core_0_0, which nothing else uses yet.
        x = _start(net, "h_0_0_0", "h_1_0_0", "core_0_0")
        z = _start(net, "h_0_0_0", "h_2_0_1", "core_1_0")
        _settled(net)
        before = net.perf_stats()
        # Two arrivals on core_0_0 in one refill: the core link now
        # saturates at 33.3 Mbps, below X's pinned 50 (a rerun with X in
        # the region), and X's drop leaves Z room on the access link,
        # above Z's pinned 50 (a second rerun with Z in it).
        r1 = _start(net, "h_0_1_0", "h_1_1_0", "core_0_0")
        r2 = _start(net, "h_0_1_1", "h_1_1_1", "core_0_0")
        after = _settled(net)
        assert after["realloc_reruns"] - before["realloc_reruns"] == 2
        assert after["flows_rerated"] - before["flows_rerated"] == 4
        third = 100e6 / 3
        assert [f.component_rates[0] for f in (x, r1, r2)] == [third] * 3
        assert z.component_rates[0] == 100e6 - third

    def test_boundary_freeze_ties_exactly_with_a_region_link(self):
        net = _fattree()
        x = _start(net, "h_0_0_0", "h_1_0_0", "core_0_0")
        _start(net, "h_0_0_0", "h_2_0_1", "core_1_0")
        _settled(net)
        before = net.perf_stats()
        kept = x.component_rates
        # R shares only core_0_0 with X: the core link saturates at
        # 100 / 2 = 50 Mbps, exactly X's pinned level, in one round.
        r = _start(net, "h_0_1_0", "h_1_1_0", "core_0_0")
        after = _settled(net)
        assert after["realloc_reruns"] == before["realloc_reruns"]
        assert after["flows_rerated"] - before["flows_rerated"] == 1
        assert after["flows_boundary"] - before["flows_boundary"] >= 1
        assert x.component_rates is kept
        assert r.component_rates == [50e6]
        core = net.link_index.id_of(("agg_0_0", "core_0_0"))
        assert net._sat_levels[core] == 50e6

    def test_weighted_striped_demand_in_the_boundary(self):
        net = _fattree()
        # W stripes over core_0_0 (weight 0.25) and core_0_1 (0.75): its
        # access links freeze both strands at level 100 Mbps.
        w = net.start_flow(
            "h_0_0_0",
            "h_1_0_0",
            64e6,
            [
                _via(net, "h_0_0_0", "h_1_0_0", "core_0_0", 0.25),
                _via(net, "h_0_0_0", "h_1_0_0", "core_0_1", 0.75),
            ],
        )
        crowd = [
            _start(net, "h_0_1_0", dst, "core_1_0")
            for dst in ("h_2_0_0", "h_2_1_0", "h_3_0_0")
        ]
        _settled(net)
        assert w.component_rates == [25e6, 75e6]
        before = net.perf_stats()
        kept = w.component_rates
        # R joins h_0_1_0's crowd at 25 Mbps and crosses core_0_1 with W's
        # heavy strand: 100 - 25 = 75 Mbps over weight 0.75 ties W's level
        # 100 exactly, so W stays pinned in the boundary.
        r = _start(net, "h_0_1_0", "h_1_1_0", "core_0_1")
        after = _settled(net)
        assert after["realloc_reruns"] == before["realloc_reruns"]
        assert w.component_rates is kept
        assert r.component_rates == [25e6]
        assert all(flow.component_rates == [25e6] for flow in crowd)
        # W's reordering fraction reads the utilization R changed.
        want = reordering_retx_fraction_indexed(
            w.component_rates,
            [component.link_ids for component in w.components],
            net._delay_array,
            net._load_array,
            net._cap_array,
        )
        assert w.reorder_retx_fraction == want


#: One random step: (kind, a, b), two draws the step interprets.
_steps = st.lists(
    st.tuples(
        st.sampled_from(["attach", "attach", "detach", "reroute", "fail", "restore"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(_steps)
def test_region_refill_matches_a_global_fill(steps):
    # After every step, rates, loads and saturation shares must equal one
    # global fill bit for bit (the oracle), and the base invariants hold.
    net = _fattree()
    topo = net.topology
    hosts = sorted(topo.hosts())
    cables = sorted((link.u, link.v) for link in topo.links())
    for kind, a, b in steps:
        live = sorted(net.flows)
        if kind == "attach":
            src = hosts[a % len(hosts)]
            dst = hosts[(a + 1 + b % (len(hosts) - 1)) % len(hosts)]
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            if b % 3 == 0 and len(paths) > 1:
                # A TeXCP-style striped flow with unequal weights.
                components = [
                    net.component(src, dst, paths, k, weight)
                    for k, weight in ((a % len(paths), 0.25), ((a + 1) % len(paths), 0.75))
                ]
            else:
                components = [net.component(src, dst, paths, b % len(paths))]
            net.start_flow(src, dst, 1e6 * (1 + b % 16), components)
        elif kind == "detach":
            # Let time pass: whatever completes in it departs.
            net.engine.run_until(net.now + (1 + b % 50) / 100)
        elif kind == "reroute" and live:
            flow = net.flows[live[a % len(live)]]
            paths = topo.equal_cost_paths(topo.tor_of(flow.src), topo.tor_of(flow.dst))
            net.reroute_flow(flow, [net.component(flow.src, flow.dst, paths, b % len(paths))])
        elif kind == "fail":
            net.fail_link(*cables[a % len(cables)])
        elif kind == "restore" and net.failed_links:
            net.restore_link(*sorted(net.failed_links)[a % len(net.failed_links)])
        _settled(net)


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
