"""Tests for the adversarial scenario engine (:mod:`repro.workloads.scenarios`),
the predictive elephant detector, and the :class:`StormOracle` battery —
every scenario class oracle-certified end to end."""

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    InvariantViolation,
    OracleViolation,
    SimulationError,
)
from repro.common.rng import RngStreams
from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig
from repro.simulator.engine import EventEngine
from repro.simulator.network import Network
from repro.topology import FatTree, build_topology
from repro.validation import StormOracle, inject_storm_bug, oracles, run_case, shrink_config
from repro.validation.fuzz import _case_fails
from repro.validation.invariants import check_flowstore_balance
from repro.workloads import (
    INTERARRIVAL_PRESETS,
    SIZE_PRESETS,
    EmpiricalDistribution,
    FailureStormScenario,
    IncastBarrierProcess,
    IncastPattern,
    LognormalDistribution,
    MixtureDistribution,
    ParetoDistribution,
    WorkloadSpec,
    make_interarrival_distribution,
    make_size_distribution,
)


# ---------------------------------------------------------------------------
# Distributions and presets
# ---------------------------------------------------------------------------

class TestEmpiricalDistribution:
    def test_mean_and_quantile(self):
        dist = EmpiricalDistribution([10.0, 100.0], [3.0, 1.0])
        assert dist.mean() == pytest.approx(32.5)
        assert dist.quantile(0.5) == 10.0
        assert dist.quantile(1.0) == 100.0

    def test_samples_stay_on_support(self):
        dist = EmpiricalDistribution([10.0, 100.0], [3.0, 1.0])
        rng = np.random.default_rng(0)
        assert {dist.sample(rng) for _ in range(200)} == {10.0, 100.0}

    def test_from_samples_weighs_equally(self):
        dist = EmpiricalDistribution.from_samples([1.0, 2.0, 3.0])
        assert dist.mean() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([])
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([0.0, 2.0])
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([1.0], [-1.0])
        with pytest.raises(ConfigurationError):
            EmpiricalDistribution([1.0]).quantile(1.5)


class TestAnalyticDistributions:
    def test_lognormal_mean_matches_samples(self):
        dist = LognormalDistribution(np.log(20e3), 1.0)
        rng = np.random.default_rng(1)
        sampled = np.mean([dist.sample(rng) for _ in range(4000)])
        assert sampled == pytest.approx(dist.mean(), rel=0.15)

    def test_pareto_mean_and_floor(self):
        dist = ParetoDistribution(1.5, 1e6)
        assert dist.mean() == pytest.approx(3e6)
        rng = np.random.default_rng(2)
        assert all(dist.sample(rng) >= 1e6 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LognormalDistribution(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            ParetoDistribution(1.0, 1e6)  # infinite mean
        with pytest.raises(ConfigurationError):
            ParetoDistribution(1.5, 0.0)
        with pytest.raises(ConfigurationError):
            MixtureDistribution([], [])
        with pytest.raises(ConfigurationError):
            MixtureDistribution([ParetoDistribution(2.0, 1.0)], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            MixtureDistribution([ParetoDistribution(2.0, 1.0)], [-1.0])

    def test_mixture_mean_is_weighted(self):
        dist = MixtureDistribution(
            [ParetoDistribution(2.0, 1.0), ParetoDistribution(2.0, 2.0)],
            [1.0, 3.0],
        )
        assert dist.mean() == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)

    @pytest.mark.parametrize("preset", ["websearch", "three-way"])
    def test_mixture_draws_match_generator_choice(self, preset):
        # sample() bisects a CDF built once instead of calling
        # Generator.choice(n, p=weights) per draw: the same generator state
        # must give the same draws and leave the same state behind.
        if preset == "three-way":
            dist = MixtureDistribution(
                [
                    LognormalDistribution(np.log(4e3), 1.2),
                    ParetoDistribution(1.5, 1e6),
                    LognormalDistribution(np.log(64e3), 0.8),
                ],
                [0.5, 0.2, 0.3],
            )
        else:
            dist = SIZE_PRESETS[preset]()
        n = len(dist.components)
        for seed in range(200):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(500):
                want = dist.components[int(reference.choice(n, p=dist.weights))]
                assert dist.sample(ours) == want.sample(reference)
            assert ours.bit_generator.state == reference.bit_generator.state

    def test_scaled_to_mean(self):
        dist = ParetoDistribution(2.0, 1.0).scaled_to_mean(10.0)
        assert dist.mean() == pytest.approx(10.0)
        with pytest.raises(ConfigurationError):
            dist.scaled_to_mean(0.0)


class TestPresets:
    def test_every_size_preset_constructs_and_samples(self):
        rng = np.random.default_rng(3)
        for name in SIZE_PRESETS:
            dist = make_size_distribution(name)
            assert dist.mean() > 0
            assert dist.sample(rng) > 0

    def test_every_interarrival_preset_constructs_and_samples(self):
        rng = np.random.default_rng(4)
        for name in INTERARRIVAL_PRESETS:
            dist = make_interarrival_distribution(name)
            assert dist.mean() == pytest.approx(1.0, rel=0.25)
            assert dist.sample(rng) > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="websearch"):
            make_size_distribution("nope")
        with pytest.raises(ConfigurationError, match="exponential"):
            make_interarrival_distribution("nope")


# ---------------------------------------------------------------------------
# Incast
# ---------------------------------------------------------------------------

class TestIncastPattern:
    def test_targets_and_senders_partition_the_hosts(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        pattern = IncastPattern(topo, targets=2)
        assert pattern.targets == sorted(topo.hosts())[:2]
        assert set(pattern.senders) | set(pattern.targets) == set(topo.hosts())
        assert not set(pattern.senders) & set(pattern.targets)

    def test_senders_always_hit_a_target(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        pattern = IncastPattern(topo, targets=3)
        rng = np.random.default_rng(5)
        for src in pattern.senders:
            assert pattern.pick_dst(src, rng) in pattern.targets

    def test_targets_send_background_but_never_to_self(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        pattern = IncastPattern(topo, targets=1)
        rng = np.random.default_rng(6)
        target = pattern.targets[0]
        assert all(pattern.pick_dst(target, rng) != target for _ in range(50))

    def test_targets_bounds(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        with pytest.raises(ConfigurationError):
            IncastPattern(topo, targets=0)
        with pytest.raises(ConfigurationError):
            IncastPattern(topo, targets=len(topo.hosts()))


def _barrier_setup(seed=3, period_s=1.0, senders_per_burst=None, duration=5.0):
    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    engine = EventEngine()
    pattern = IncastPattern(topo, targets=2)
    spec = WorkloadSpec(
        arrival_rate_per_host=0.5, duration_s=duration, flow_size_bytes=1 * MB
    )
    flows = []
    process = IncastBarrierProcess(
        engine,
        pattern,
        spec,
        lambda s, d, b: flows.append((engine.now, s, d, b)),
        np.random.default_rng(seed),
        period_s=period_s,
        senders_per_burst=senders_per_burst,
    )
    return engine, process, flows, pattern


class TestIncastBarrierProcess:
    def test_barriers_are_synchronized_bursts(self):
        engine, process, flows, pattern = _barrier_setup()
        process.start()
        engine.run_until(10.0)
        assert process.barriers_fired == 5  # t = 1..5
        assert len(flows) == 5 * len(pattern.senders)
        # Every flow in a burst lands at the exact barrier instant and
        # every destination is an aggregator.
        times = sorted({t for t, *_ in flows})
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(d in pattern.targets for _, _, d, _ in flows)

    def test_senders_per_burst_subsamples(self):
        engine, process, flows, _ = _barrier_setup(senders_per_burst=4)
        process.start()
        engine.run_until(10.0)
        assert len(flows) == 5 * 4

    def test_same_seed_same_bursts(self):
        runs = []
        for _ in range(2):
            engine, process, flows, _ = _barrier_setup(seed=9, senders_per_burst=3)
            process.start()
            engine.run_until(10.0)
            runs.append(flows)
        assert runs[0] == runs[1]

    def test_default_period_matches_offered_load(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        process = IncastBarrierProcess(
            EventEngine(),
            IncastPattern(topo),
            WorkloadSpec(
                arrival_rate_per_host=0.5, duration_s=5.0, flow_size_bytes=1 * MB
            ),
            lambda s, d, b: None,
            np.random.default_rng(0),
        )
        assert process.period_s == pytest.approx(2.0)  # 1 / rate

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _barrier_setup(period_s=0.0)
        with pytest.raises(ConfigurationError):
            _barrier_setup(senders_per_burst=0)


# ---------------------------------------------------------------------------
# Failure storms
# ---------------------------------------------------------------------------

class TestFailureStormScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureStormScenario(start_s=0.0)
        with pytest.raises(ConfigurationError):
            FailureStormScenario(wave_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            FailureStormScenario(waves=0)
        with pytest.raises(ConfigurationError):
            FailureStormScenario(cables_per_wave=0)

    def test_storm_cables_are_switch_switch_only(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        cables = FailureStormScenario.storm_cables(topo)
        hosts = set(topo.hosts())
        assert cables and all(u not in hosts and v not in hosts for u, v in cables)

    def test_wave_schedule_shape(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        storm = FailureStormScenario(
            start_s=2.0, wave_interval_s=2.0, waves=3, cables_per_wave=1, outage_s=1.5
        )
        events = storm.link_events(topo, RngStreams(7).stream("storm"))
        fails = [e for e in events if e[0] == "fail"]
        restores = [e for e in events if e[0] == "restore"]
        assert [t for _, t, *_ in fails] == [2.0, 4.0, 6.0]
        # Every fail is paired with a restore exactly outage_s later.
        assert sorted((t + 1.5, u, v) for _, t, u, v in fails) == sorted(
            (t, u, v) for _, t, u, v in restores
        )

    def test_rolling_never_refails_a_down_cable(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        storm = FailureStormScenario(
            start_s=1.0, wave_interval_s=1.0, waves=6, cables_per_wave=2, outage_s=3.5
        )
        events = storm.link_events(topo, RngStreams(11).stream("storm"))
        down_until = {}
        for action, when, u, v in sorted(events, key=lambda e: (e[1], e[0])):
            if action == "fail":
                assert down_until.get((u, v), 0.0) <= when, (u, v, when)
                down_until[(u, v)] = when + 3.5

    def test_zero_outage_means_never_restored(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        storm = FailureStormScenario(
            start_s=1.0, wave_interval_s=1.0, waves=4, cables_per_wave=2, outage_s=0.0
        )
        events = storm.link_events(topo, RngStreams(13).stream("storm"))
        assert events and all(action == "fail" for action, *_ in events)
        # Permanent outages accumulate distinct cables.
        assert len({(u, v) for _, _, u, v in events}) == len(events)

    def test_schedule_is_a_pure_function_of_seed(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        storm = FailureStormScenario()
        assert storm.link_events(topo, RngStreams(5).stream("storm")) == (
            storm.link_events(topo, RngStreams(5).stream("storm"))
        )

    def test_install_drives_live_network(self):
        network = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        storm = FailureStormScenario(
            start_s=1.0, wave_interval_s=1.0, waves=2, cables_per_wave=1, outage_s=0.5
        )
        events = storm.install(network, RngStreams(3).stream("storm"))
        assert len([e for e in events if e[0] == "fail"]) == 2
        network.engine.run_until(1.25)
        assert network.failed_links  # first wave down
        network.engine.run_until(10.0)
        assert not network.failed_links  # every outage healed


# ---------------------------------------------------------------------------
# Predictive elephant detection
# ---------------------------------------------------------------------------

def _single_flow_network(size_bytes, detector="predictive"):
    network = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS), elephant_detector=detector)
    topo = network.topology
    src, dst = "h_0_0_0", "h_1_0_0"
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    flow = network.start_flow(src, dst, size_bytes, [network.component(src, dst, paths, 0)])
    return network, flow


class TestPredictiveElephantDetector:
    def test_network_rejects_unknown_detector(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        with pytest.raises(SimulationError):
            Network(topo, elephant_detector="psychic")

    def test_true_elephant_promoted_early(self):
        # 128 MB at 100 Mbps is > 10 s serialized: a true elephant, and
        # the projection sees it within two 0.25 s samples.
        network, flow = _single_flow_network(128 * MB)
        network.engine.run_until(1.0)
        assert flow.is_elephant
        stats = network.perf_stats()
        assert stats["det_early_promotions"] == 1.0
        assert stats["det_mean_detection_age_s"] < network.elephant_age_s

    def test_mouse_never_promoted(self):
        network, _ = _single_flow_network(1 * MB)  # ~0.08 s at line rate
        network.engine.run_until(5.0)
        stats = network.perf_stats()
        assert stats["det_early_promotions"] == 0.0
        assert stats["det_fallback_promotions"] == 0.0

    def test_stalled_flow_promoted_immediately(self):
        # A flow stalled behind a failure projects an infinite lifetime —
        # promoted as soon as MIN_SAMPLES probes confirm the zero rate.
        network, flow = _single_flow_network(4 * MB)
        network.fail_link("h_0_0_0", network.topology.tor_of("h_0_0_0"))
        network.engine.run_until(1.0)
        assert flow.is_elephant
        assert network.perf_stats()["det_early_promotions"] == 1.0

    def test_age_fallback_guarantees_threshold_parity(self):
        # A flow whose early projection says "finishes under the
        # threshold" (100 MB ~ 8 s at line rate) is left undecided; when
        # later contention slows it past 10 s of life, the age fallback
        # still promotes it at exactly elephant_age_s — the promoted set
        # is a superset of the threshold detector's, never a subset.
        network, flow = _single_flow_network(100 * MB)
        topo = network.topology
        src, dst = "h_0_0_1", "h_1_0_1"
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))

        def add_contention():
            for _ in range(3):
                network.start_flow(src, dst, 128 * MB, [network.component(src, dst, paths, 0)])

        network.engine.schedule_at(3.0, add_contention)
        network.engine.run_until(9.9)
        assert not flow.is_elephant
        network.engine.run_until(10.5)
        assert flow.is_elephant
        assert network.perf_stats()["det_fallback_promotions"] >= 1.0


# ---------------------------------------------------------------------------
# StormOracle
# ---------------------------------------------------------------------------

def _oracle_network():
    network = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
    return network, StormOracle().attach(network)


def _component(network, src, dst, index):
    topo = network.topology
    paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
    return network.component(src, dst, paths, index), paths[index]


def _spy_checks(monkeypatch, oracle):
    """The kinds (placement or reroute) of the routing checks the oracle runs."""
    kinds = []
    check = oracle._check_components

    def spy(src, dst, components, kind):
        kinds.append(kind)
        return check(src, dst, components, kind)

    monkeypatch.setattr(oracle, "_check_components", spy)
    return kinds


class TestStormOracle:
    def test_placement_on_dead_path_with_alive_alternative_raises(self):
        network, oracle = _oracle_network()
        # Find a core path for h_0_0_0 -> h_1_0_0 and kill its first
        # switch-switch cable; the other equal-cost paths stay alive.
        component, path = _component(network, "h_0_0_0", "h_1_0_0", 0)
        network.fail_link(path[0], path[1])
        with pytest.raises(OracleViolation) as info:
            network.start_flow("h_0_0_0", "h_1_0_0", 8 * MB, [component])
        assert info.value.oracle == "storm-routing"

    def test_reroute_onto_dead_path_raises(self):
        network, oracle = _oracle_network()
        dead_component, dead_path = _component(network, "h_0_0_0", "h_1_0_0", 0)
        alive_component, _ = _component(network, "h_0_0_0", "h_1_0_0", 1)
        flow = network.start_flow("h_0_0_0", "h_1_0_0", 8 * MB, [alive_component])
        network.fail_link(dead_path[0], dead_path[1])
        with pytest.raises(OracleViolation) as info:
            network.reroute_flow(flow, [dead_component])
        assert info.value.oracle == "storm-routing"
        # Refused before it reached the network: the flow keeps its path.
        assert [c.index for c in flow.components] == [1]
        assert flow.path_switches == 0

    def test_stall_carveout_when_no_alive_path_exists(self, monkeypatch):
        network, oracle = _oracle_network()
        checked = _spy_checks(monkeypatch, oracle)
        topo = network.topology
        component, _ = _component(network, "h_0_0_0", "h_1_0_0", 0)
        # Killing the source's access cable deadens *every* equal-cost
        # path: placing (and stalling) is the documented semantics.
        network.fail_link("h_0_0_0", topo.tor_of("h_0_0_0"))
        flow = network.start_flow("h_0_0_0", "h_1_0_0", 8 * MB, [component])
        assert checked == ["placement"]
        network.engine.run_until(1.0)
        assert flow.flow_id in network.flows
        assert flow.rate_bps == 0.0

    def test_clean_placements_pass_and_are_counted(self, monkeypatch):
        network, oracle = _oracle_network()
        checked = _spy_checks(monkeypatch, oracle)
        component, _ = _component(network, "h_0_0_0", "h_2_0_0", 1)
        flow = network.start_flow("h_0_0_0", "h_2_0_0", 8 * MB, [component])
        assert checked == ["placement"]
        network.engine.run_until(0.01)
        assert flow.rate_bps > 0.0

    def test_balance_audited_at_every_failure_edge(self, monkeypatch):
        network, oracle = _oracle_network()
        audits = []

        def audit(net):
            audits.append(len(net.failed_links))
            check_flowstore_balance(net)

        monkeypatch.setattr(oracles, "check_flowstore_balance", audit)
        component, _ = _component(network, "h_0_0_0", "h_1_0_0", 2)
        network.start_flow("h_0_0_0", "h_1_0_0", 8 * MB, [component])
        assert audits == []
        network.fail_link("agg_0_0", "core_0_0")
        network.restore_link("agg_0_0", "core_0_0")
        oracle.final_check()
        # One audit with the cable down (both directions), one after its
        # restore, one at the final check.
        assert audits == [2, 0, 0]

    def test_corrupted_ledger_caught_on_failure_edge(self):
        network, oracle = _oracle_network()
        # Simulate a leaked row: the started counter says one more flow
        # is in flight than the store holds.
        network._stat_flows_started += 1
        with pytest.raises(InvariantViolation) as info:
            network.fail_link("agg_0_0", "core_0_0")
        assert info.value.invariant == "flowstore-balance"

    def test_attach_is_exclusive_and_detach_restores(self):
        network, oracle = _oracle_network()
        with pytest.raises(ValueError):
            oracle.attach(network)
        wrapped = network.start_flow
        oracle.detach()
        assert network.start_flow != wrapped
        assert not network.link_failed_listeners
        oracle.detach()  # idempotent
        with pytest.raises(ValueError):
            oracle.final_check()


class TestFlowstoreBalanceCheck:
    def test_clean_network_balances(self):
        network, _ = _single_flow_network(8 * MB, detector="threshold")
        check_flowstore_balance(network)
        network.engine.run_until(60.0)  # flow completes, row freed
        check_flowstore_balance(network)

    def test_live_count_mismatch_detected(self):
        network, flow = _single_flow_network(8 * MB, detector="threshold")
        del network.flows[flow.flow_id]  # table and store now disagree
        with pytest.raises(InvariantViolation) as info:
            check_flowstore_balance(network)
        assert info.value.invariant == "flowstore-balance"


# ---------------------------------------------------------------------------
# End-to-end certification: every scenario class through run_case
# ---------------------------------------------------------------------------

def _base_config(**overrides):
    params = dict(
        topology="fattree",
        topology_params={"p": 4},
        pattern="random",
        scheduler="ecmp",
        arrival_rate_per_host=0.1,
        duration_s=4.0,
        flow_size_bytes=4e6,
        seed=13,
        drain_limit_s=60.0,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


def _storm_config(**overrides):
    topo = build_topology("fattree", p=4)
    storm = FailureStormScenario(
        start_s=1.0, wave_interval_s=1.0, waves=3, cables_per_wave=1, outage_s=1.0
    )
    events = storm.link_events(topo, RngStreams(19).stream("storm"))
    return _base_config(pattern="stride", link_events=events, **overrides)


class TestScenarioCertification:
    """The ISSUE contract: every new scenario class passes the full
    battery — invariants, differential oracles, and the StormOracle."""

    def test_incast_barrier_certified(self):
        result = run_case(
            _base_config(
                pattern="incast",
                pattern_params={"targets": 2},
                arrival="incast-barrier",
                arrival_params={"period_s": 1.0, "senders_per_burst": 6},
            )
        )
        assert result.flows_generated > 0

    def test_empirical_arrivals_certified(self):
        result = run_case(
            _base_config(
                arrival="empirical",
                arrival_params={
                    "size_preset": "websearch",
                    "interarrival_preset": "bursty",
                },
            )
        )
        assert result.flows_generated > 0

    def test_failure_storm_certified_under_dard(self):
        result = run_case(_storm_config(scheduler="dard"))
        assert result.flows_generated > 0

    def test_predictive_detector_certified(self):
        result = run_case(
            _base_config(
                scheduler="dard",
                network_params={"elephant_detector": "predictive"},
            )
        )
        assert result.flows_generated > 0

    def test_injected_storm_bug_is_caught(self):
        error = _case_fails(_storm_config(), inject_storm_bug, 5)
        assert error is not None
        # The bug arms off the first link failure: with no storm in the
        # schedule the same world runs clean.
        assert _case_fails(_base_config(), inject_storm_bug, 5) is None

    def test_storm_bug_shrinks_to_minimal_schedule(self):
        # Satellite contract: the shrinker reduces a multi-wave storm
        # against the failure-armed bug to at most two events — the bug
        # needs exactly one "fail" to fire, so everything else drops.
        config = _storm_config()
        assert len(config.link_events) >= 6
        shrunk, runs = shrink_config(
            config,
            lambda c: _case_fails(c, inject_storm_bug, 5) is not None,
            max_runs=40,
        )
        assert runs > 0
        assert 1 <= len(shrunk.link_events) <= 2
        assert any(e[0] == "fail" for e in shrunk.link_events)
