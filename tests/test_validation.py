"""Tests for the differential-oracle validation subsystem
(:mod:`repro.validation`): invariant checks, oracles, golden snapshots,
and the fuzzer — including the injected-bug self-test the whole layer
exists to pass."""

import dataclasses
import json
import random

import pytest

from repro.common.errors import InvariantViolation, OracleViolation, SimulationError
from repro.common.units import MBPS
from repro.experiments.runner import run_scenario
from repro.simulator.network import Network
from repro.topology import FatTree
from repro.validation import (
    DEFAULT_GOLDEN_PATH,
    FCT_AGREEMENT_BAND,
    GOLDEN_TWINS,
    InvariantChecker,
    SwitchTableSnapshot,
    allocator_equivalence_suite,
    check_allocator_equivalence,
    check_dynamics_monotone,
    check_maxmin_certificate,
    check_network_against_reference,
    check_network_allocation,
    check_static_forwarding,
    check_theorem1_bound_live,
    compare_goldens,
    inject_capacity_bug,
    live_view,
    random_scenario,
    run_case,
    run_fluid_vs_packet,
    replay_goldens,
    run_fuzz,
    shrink_config,
    store_goldens,
)
from repro.validation.oracles import random_allocation_case


def two_flow_network():
    net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
    topo = net.topology
    for src, dst, index in [("h_0_0_0", "h_1_0_0", 0), ("h_0_0_0", "h_2_0_0", 2)]:
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        net.start_flow(src, dst, 64e6, [net.component(src, dst, paths, index)])
    net.engine.run_until(0.001)  # let the coalesced realloc settle
    return net


# ---------------------------------------------------------------------------
# KKT certificate
# ---------------------------------------------------------------------------

class TestMaxminCertificate:
    def test_accepts_true_maxmin_allocations(self):
        from repro.simulator.maxmin import maxmin_allocate

        for i in range(25):
            demands, capacities = random_allocation_case(random.Random(i))
            rates = maxmin_allocate(demands, capacities)
            check_maxmin_certificate(demands, rates, capacities)

    def test_rejects_infeasible(self):
        demands = [((("a", "b"),), 1.0)]
        with pytest.raises(InvariantViolation) as info:
            check_maxmin_certificate(demands, [20.0], {("a", "b"): 10.0})
        assert info.value.invariant == "maxmin-kkt"
        assert info.value.link == ("a", "b")

    def test_rejects_underallocation(self):
        # Feasible but not max-min: the single demand leaves capacity idle.
        demands = [((("a", "b"),), 1.0)]
        with pytest.raises(InvariantViolation) as info:
            check_maxmin_certificate(demands, [5.0], {("a", "b"): 10.0})
        assert info.value.flow_id == 0

    def test_rejects_unfair_split(self):
        # Both demands share one link; equal weights demand equal rates.
        demands = [((("a", "b"),), 1.0), ((("a", "b"),), 1.0)]
        with pytest.raises(InvariantViolation):
            check_maxmin_certificate(demands, [7.0, 3.0], {("a", "b"): 10.0})

    def test_rate_count_mismatch(self):
        with pytest.raises(InvariantViolation):
            check_maxmin_certificate([((("a", "b"),), 1.0)], [], {("a", "b"): 1.0})


# ---------------------------------------------------------------------------
# Live-network checks
# ---------------------------------------------------------------------------

class TestLiveNetworkChecks:
    def test_clean_network_passes_everything(self):
        net = two_flow_network()
        view = live_view(net)
        check_network_allocation(net, view)
        check_theorem1_bound_live(net, view)
        check_network_against_reference(net, view)

    def test_corrupted_capacity_is_caught(self):
        net = two_flow_network()
        inject_capacity_bug(net)
        net._request_realloc()
        net.engine.run_until(net.engine.now + 0.001)
        view = live_view(net)
        with pytest.raises((InvariantViolation, OracleViolation)):
            check_network_allocation(net, view)
            check_network_against_reference(net, view)

    def test_checks_skip_while_realloc_pending(self):
        net = two_flow_network()
        inject_capacity_bug(net)
        net._request_realloc()  # rates now stale AND the bug is armed...
        assert net._realloc_pending
        view = live_view(net)
        check_network_allocation(net, view)  # ...but pending => both checks no-op
        check_network_against_reference(net, view)

    def test_survives_failed_link(self):
        net = two_flow_network()
        net.fail_link("agg_0_0", "core_0_0")
        net.engine.run_until(net.engine.now + 0.001)
        view = live_view(net)
        check_network_allocation(net, view)
        check_network_against_reference(net, view)


# ---------------------------------------------------------------------------
# Static switch tables
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fabric_stack():
    from repro.addressing import HierarchicalAddressing, PathCodec
    from repro.switches import SwitchFabric

    addressing = HierarchicalAddressing(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
    return SwitchFabric(addressing), PathCodec(addressing)


class TestStaticTables:
    def test_snapshot_stable_across_traffic(self, fabric_stack):
        fabric, codec = fabric_stack
        snapshot = SwitchTableSnapshot.capture(fabric)
        assert snapshot.num_entries > 0
        net = two_flow_network()
        snapshot.verify(fabric)
        check_static_forwarding(fabric, codec, net, live_view(net))

    def test_snapshot_detects_table_mutation(self, fabric_stack):
        fabric, _ = fabric_stack
        snapshot = SwitchTableSnapshot.capture(fabric)
        switch = fabric.switches[sorted(fabric.switches)[0]]
        # Surgical table corruption: drop a rule from the buckets lookup reads.
        bucket = next(iter(switch.uphill._by_length.values()))
        value, port = bucket.popitem()
        try:
            with pytest.raises(InvariantViolation) as info:
                snapshot.verify(fabric)
            assert info.value.invariant == "static-tables"
        finally:
            bucket[value] = port
        snapshot.verify(fabric)  # restored => clean again


# ---------------------------------------------------------------------------
# Theorem-2 dynamics certificate
# ---------------------------------------------------------------------------

class TestDynamicsCertificate:
    def test_real_trajectory_certifies(self):
        from repro.common.rng import RngStreams
        from repro.gametheory import run_best_response_dynamics
        from repro.gametheory.study import random_game_on

        rng = RngStreams(9).stream("test-dynamics")
        game = random_game_on(FatTree(p=4, link_bandwidth_bps=100 * MBPS), 10, rng)
        result = run_best_response_dynamics(game)
        assert result.converged
        check_dynamics_monotone(game, result)

    def test_nash_certificate_flags_deviation(self):
        from repro.gametheory import CongestionGame, GameFlow, nash_certificate

        game = CongestionGame(
            {("a", "b"): 10.0, ("c", "d"): 10.0},
            [GameFlow(0, ((("a", "b"),), (("c", "d"),))),
             GameFlow(1, ((("a", "b"),),))],
            delta_bps=0.5,
        )
        # Both flows crammed onto the shared link: flow 0 should deviate.
        bad = (0, 0)
        certificate = nash_certificate(game, bad)
        assert not certificate.is_nash
        assert certificate.first_deviator() == 0


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------

class TestOracles:
    def test_equivalence_suite_clean(self):
        assert allocator_equivalence_suite(cases=15, seed=3) == 15

    def test_equivalence_rejects_divergent_capacities(self):
        demands = [((("a", "b"),), 1.0)]
        with pytest.raises((OracleViolation, SimulationError)):
            # Reference sees a different world than the indexed path would
            # if its cache were stale; simulate by disagreeing rates.
            check_allocator_equivalence(demands, {})

    def test_fluid_vs_packet_band_enforced(self):
        rows = run_fluid_vs_packet(
            scenarios={"single": [("h_0_0_0", "h_1_0_0", 0)]}
        )
        low, high = FCT_AGREEMENT_BAND
        assert low <= rows[0]["ratio"] <= high + 0.01

    def test_fluid_vs_packet_band_violation_raises(self):
        with pytest.raises(OracleViolation) as info:
            run_fluid_vs_packet(
                scenarios={"single": [("h_0_0_0", "h_1_0_0", 0)]},
                band=(0.99, 1.0),  # absurdly tight: must trip
            )
        assert info.value.oracle == "fluid-vs-packet"


# ---------------------------------------------------------------------------
# Fuzzer
# ---------------------------------------------------------------------------

class TestFuzzer:
    def test_scenarios_are_pure_functions_of_seed(self):
        for seed in range(5):
            assert random_scenario(seed) == random_scenario(seed)

    def test_clean_sweep(self):
        report = run_fuzz(seeds=4)
        assert report.ok
        assert report.cases == 4

    def test_injected_bug_is_caught_and_shrunk(self):
        # Detection is probabilistic per seed (the corrupted access cable
        # must carry demand inside a checker window); seeds 8 and 9 both
        # draw configs that expose it. The CLI self-test sweeps 100 seeds
        # and only needs one catch — here we pin two known-hot seeds so
        # the shrink machinery is exercised on every failure.
        report = run_fuzz(seeds=2, start_seed=8, inject_bug=True, shrink_failures=2)
        assert not report.ok, "the oracles missed the injected capacity bug"
        assert len(report.failures) == 2
        for failure in report.failures:
            assert "maxmin-kkt" in failure.error or "network-vs-reference" in failure.error
            assert failure.shrunk is not None
            rendered = failure.render()
            assert "minimal reproducing config" in rendered
            assert f"seed {failure.seed}" in rendered

    def test_shrink_reaches_simpler_config(self):
        config = random_scenario(0)

        def fails(candidate):
            # A "bug" that only depends on the scheduler staying non-ecmp
            # being irrelevant: everything fails, so shrink bottoms out.
            return True

        shrunk, runs = shrink_config(config, fails, max_runs=40)
        assert runs > 0
        assert shrunk.scheduler == "ecmp"
        assert shrunk.pattern == "random"
        assert shrunk.topology == "fattree"
        assert shrunk.link_events == ()
        assert shrunk.duration_s <= config.duration_s

    def test_shrink_keeps_failure_failing(self):
        # Only configs with at least one link event "fail": the shrinker
        # must not simplify past the failure condition.
        config = dataclasses.replace(
            random_scenario(1),
            link_events=(("fail", 2.0, "agg_0_0", "core_0_0"),
                         ("fail", 3.0, "agg_0_1", "core_2")),
            topology="fattree",
            topology_params={"p": 4},
        )
        shrunk, _ = shrink_config(
            config, lambda c: len(c.link_events) >= 1, max_runs=40
        )
        assert len(shrunk.link_events) == 1

    def test_budget_stops_sweep(self):
        report = run_fuzz(budget_s=0.0)
        assert report.cases == 1  # at least one case always runs

    def test_run_case_attaches_battery(self):
        result = run_case(random_scenario(2), every_n_events=3)
        assert result.flows_generated >= 0

    def test_dard_cases_draw_the_testbed_regime(self):
        # DARD cases draw 100 Mbps links and fast control loops from their
        # own stream; every other case keeps the shared draws alone, so no
        # non-DARD config carries those keys.
        configs = [random_scenario(seed) for seed in range(200)]
        assert sum(c.scheduler == "dard" for c in configs) >= 10
        for c in configs:
            if c.scheduler != "dard":
                assert c.scheduler_params == {}
                assert "link_bandwidth_bps" not in c.topology_params
                assert "elephant_age_s" not in c.network_params
                continue
            assert c.topology_params["link_bandwidth_bps"] == 100 * MBPS
            assert 0.1 <= c.scheduler_params["query_interval_s"] <= 0.5
            assert 0.5 <= c.scheduler_params["scheduling_interval_s"] <= 2.0
            assert c.scheduler_params["jitter_range_s"] == (0.1, 0.5)
            if c.network_params.get("elephant_detector") != "predictive":
                assert 0.2 <= c.network_params["elephant_age_s"] <= 1.0

    def test_dard_cases_run_the_control_plane(self):
        # At the paper's 10 s elephant age no DARD case here would ever
        # promote a flow; the drawn regime must make most of them promote
        # and several of them shift.
        results = [
            run_scenario(config)
            for config in map(random_scenario, range(200))
            if config.scheduler == "dard"
        ]
        assert sum(r.peak_elephants > 0 for r in results) >= 10
        assert sum(r.dard_shifts > 0 for r in results) >= 4

    def test_draw_space_covers_every_scenario_class(self):
        # Satellite contract: within a bounded draw budget (no sims run)
        # the generator must exercise incast patterns, synchronized
        # barriers, empirical sizes, failure storms (>= 3 fail events —
        # what distinguishes a storm from the sporadic schedule), and the
        # predictive detector. Draws are pure functions of the seed, so
        # these counts are exact, not flaky.
        configs = [random_scenario(seed) for seed in range(300)]
        incast = sum(c.pattern == "incast" for c in configs)
        barriers = sum(c.arrival == "incast-barrier" for c in configs)
        empirical = sum(c.arrival == "empirical" for c in configs)
        storms = sum(
            sum(e[0] == "fail" for e in c.link_events) >= 3 for c in configs
        )
        predictive = sum(
            c.network_params.get("elephant_detector") == "predictive"
            for c in configs
        )
        assert incast >= 20, incast
        assert barriers >= 20, barriers
        assert empirical >= 20, empirical
        assert storms >= 20, storms
        assert predictive >= 20, predictive
        # Incast draws always carry a valid targets parameter.
        assert all(
            c.pattern_params.get("targets", 0) >= 1
            for c in configs
            if c.pattern == "incast"
        )


# ---------------------------------------------------------------------------
# Golden snapshots
# ---------------------------------------------------------------------------

class TestGoldens:
    def test_store_then_compare_clean(self, tmp_path):
        path = tmp_path / "golden.json"
        document = store_goldens(path)
        assert path.exists()
        assert compare_goldens(path) == []
        # The stored document round-trips through JSON.
        assert json.loads(path.read_text())["scenarios"].keys() == (
            document["scenarios"].keys()
        )

    def test_compare_detects_drift(self, tmp_path):
        path = tmp_path / "golden.json"
        document = store_goldens(path)
        tampered = json.loads(path.read_text())
        name = sorted(tampered["scenarios"])[0]
        tampered["scenarios"][name]["fct_digest"] = "0" * 16
        tampered["scenarios"][name]["flows_completed"] += 1
        path.write_text(json.dumps(tampered))
        mismatches = compare_goldens(path, document=document)
        assert len(mismatches) == 2
        assert any("fct_digest" in m for m in mismatches)

    def test_missing_file_reported(self, tmp_path):
        mismatches = compare_goldens(tmp_path / "absent.json", document={})
        assert len(mismatches) == 1
        assert "does not exist" in mismatches[0]

    def test_repo_golden_file_is_current(self):
        # The committed golden file must match a fresh capture — this is
        # the actual regression gate; update with
        # `repro validate --golden update` after intentional changes.
        mismatches = compare_goldens()
        assert mismatches == [], "\n".join(mismatches)

    def test_a_dard_golden_runs_the_control_plane(self):
        # A golden update must not quietly lose the one scenario whose
        # digest depends on DARD's shifts.
        scenarios = json.loads(DEFAULT_GOLDEN_PATH.read_text())["scenarios"]
        assert scenarios["fattree_dard_stride_storm"]["dard_shifts"] > 0
        assert scenarios["fattree_dard_stride_storm"]["peak_elephants"] > 0

    def test_twin_replay_reports_missing_scenario(self, tmp_path):
        # A stale golden file lacking one scenario is a mismatch line for
        # every twin replay, not a crash; the scenarios it does hold still
        # replay cleanly against the committed digests.
        stale = json.loads(DEFAULT_GOLDEN_PATH.read_text())
        del stale["scenarios"]["clos_vlb_staggered"]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        for twin, exempt in GOLDEN_TWINS:
            mismatches = replay_goldens(twin, exempt, path)
            assert mismatches == [
                f"scenarios[{twin.oracle}].clos_vlb_staggered: missing from "
                f"golden file {path}"
            ]


# ---------------------------------------------------------------------------
# InvariantChecker driver
# ---------------------------------------------------------------------------

class TestInvariantChecker:
    def test_battery_runs_during_simulation(self):
        net = two_flow_network()
        checker = InvariantChecker(net, every_n_events=1).attach()
        net.engine.run_until(net.engine.now + 30.0)  # past both completions
        checker.detach()
        assert checker.checks_run > 0

    def test_detach_stops_checking(self):
        net = two_flow_network()
        checker = InvariantChecker(net, every_n_events=1).attach()
        checker.detach()
        before = checker.checks_run
        net.fail_link("agg_0_0", "core_0_0")
        net.engine.run_until(net.engine.now + 0.5)
        assert checker.checks_run == before

    def test_violation_propagates_out_of_run_until(self):
        net = two_flow_network()
        checker = InvariantChecker(net, every_n_events=1).attach()
        inject_capacity_bug(net)
        net._request_realloc()
        with pytest.raises((InvariantViolation, OracleViolation)):
            # Ensure at least one event (the realloc) is processed.
            net.engine.run_until(net.engine.now + 1.0)
        checker.detach()
