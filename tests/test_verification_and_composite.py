"""Tests for fabric verification and composite/modulated workloads."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.simulator import EventEngine
from repro.switches import SwitchFabric, audit_table_sizes, verify_fabric
from repro.topology import FatTree
from repro.workloads import (
    CompositePattern,
    LoadPhase,
    LoadProfile,
    ModulatedArrivalProcess,
    StaggeredPattern,
    StridePattern,
    WorkloadSpec,
)


class TestVerifyFabric:
    def test_fattree_fully_verifies(self, fattree4, fattree4_addressing, fattree4_fabric, fattree4_codec):
        report = verify_fabric(fattree4_fabric, fattree4_codec)
        assert report.ok
        # 16 hosts -> 120 unordered pairs, all within the default budget.
        assert report.pairs_checked == 120
        assert report.paths_checked > 120
        assert "OK" in report.render()

    def test_clos_fully_verifies(self, clos44, clos44_addressing, clos44_fabric):
        codec = PathCodec(clos44_addressing)
        report = verify_fabric(clos44_fabric, codec)
        assert report.ok

    def test_budget_respected(self, fattree4_fabric, fattree4_codec):
        report = verify_fabric(fattree4_fabric, fattree4_codec, max_pairs=10)
        assert report.pairs_checked == 10

    def test_corrupted_table_detected(self, fattree4):
        addressing = HierarchicalAddressing(fattree4)
        codec = PathCodec(addressing)
        fabric = SwitchFabric(addressing)
        # Sabotage: point one ToR's uphill chain at the wrong agg port.
        tor = fabric.switch("tor_0_0")
        entry = tor.uphill.entries()[0]
        wrong_port = next(
            p for p, n in tor.ports.items()
            if n.startswith("agg") and p != entry.port
        )
        tor.uphill._by_length[entry.prefix.length][entry.prefix.value] = wrong_port
        report = verify_fabric(fabric, codec)
        assert not report.ok
        # Misdirected packets dead-end at the wrong aggregation switch.
        assert any("routing error" in f for f in report.failures)

    def test_table_audit_by_role(self, fattree4_fabric):
        sizes = audit_table_sizes(fattree4_fabric)
        assert len(sizes) == 20  # every switch audited
        # Cores: downhill only.
        assert sizes["core_0_0"][1] == 0
        # All aggs identical by symmetry.
        agg_sizes = {v for k, v in sizes.items() if k.startswith("agg")}
        assert len(agg_sizes) == 1


class TestCompositePattern:
    def test_mixture_proportions(self, fattree4):
        rng = np.random.default_rng(0)
        pattern = CompositePattern(
            [StaggeredPattern(fattree4, tor_p=1.0, pod_p=0.0), StridePattern(fattree4)],
            weights=[0.5, 0.5],
        )
        same_tor = 0
        n = 2000
        for _ in range(n):
            dst = pattern.pick_dst("h_0_0_0", rng)
            if fattree4.tor_of(dst) == "tor_0_0":
                same_tor += 1
        # Half the draws come from the always-same-ToR pattern.
        assert same_tor / n == pytest.approx(0.5, abs=0.05)

    def test_validation(self, fattree4, clos44):
        stride = StridePattern(fattree4)
        with pytest.raises(ConfigurationError):
            CompositePattern([], [])
        with pytest.raises(ConfigurationError):
            CompositePattern([stride], [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            CompositePattern([stride], [-1.0])
        with pytest.raises(ConfigurationError):
            CompositePattern([stride, StridePattern(clos44)], [0.5, 0.5])


class TestLoadProfile:
    def test_multiplier_lookup(self):
        profile = LoadProfile([LoadPhase(10.0, 0.5), LoadPhase(20.0, 2.0)])
        assert profile.multiplier_at(0.0) == 0.5
        assert profile.multiplier_at(10.0) == 2.0
        assert profile.multiplier_at(25.0) == 2.0  # last phase extends

    def test_step_builder(self):
        profile = LoadProfile.step(low=1.0, high=3.0, switch_at_s=30.0, end_s=60.0)
        assert profile.multiplier_at(29.9) == 1.0
        assert profile.multiplier_at(30.1) == 3.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile([])
        with pytest.raises(ConfigurationError):
            LoadProfile([LoadPhase(10.0, 1.0), LoadPhase(5.0, 1.0)])
        with pytest.raises(ConfigurationError):
            LoadPhase(10.0, -0.5)
        with pytest.raises(ConfigurationError):
            LoadPhase(0.0, 1.0)


class TestModulatedArrivals:
    def _count_arrivals(self, profile, duration=100.0, rate=0.5):
        engine = EventEngine()
        topo = FatTree(p=4)
        pattern = StridePattern(topo)
        times = []
        process = ModulatedArrivalProcess(
            engine=engine,
            pattern=pattern,
            spec=WorkloadSpec(arrival_rate_per_host=rate, duration_s=duration),
            sink=lambda s, d, b: times.append(engine.now),
            rng=np.random.default_rng(9),
            profile=profile,
        )
        process.start()
        engine.run_until_idle()
        return times

    def test_step_up_increases_rate(self):
        profile = LoadProfile.step(low=0.5, high=2.0, switch_at_s=50.0, end_s=100.0)
        times = self._count_arrivals(profile)
        early = sum(1 for t in times if t < 50.0)
        late = sum(1 for t in times if t >= 50.0)
        # 4x the rate in the second half -> roughly 4x the arrivals.
        assert late > 2.5 * early

    def test_idle_phase_produces_nothing(self):
        profile = LoadProfile([LoadPhase(50.0, 0.0), LoadPhase(100.0, 1.0)])
        times = self._count_arrivals(profile)
        assert all(t >= 50.0 for t in times)
        assert times  # the active phase did produce arrivals

    def test_fully_idle_profile(self):
        profile = LoadProfile([LoadPhase(200.0, 0.0)])
        assert self._count_arrivals(profile) == []


class TestSeedStability:
    """Composite/modulated workloads are pure functions of their seed —
    the determinism contract every scenario class must honor."""

    def test_composite_pattern_same_seed_same_destinations(self, fattree4):
        def draws(seed):
            rng = np.random.default_rng(seed)
            pattern = CompositePattern(
                [StaggeredPattern(fattree4), StridePattern(fattree4)],
                weights=[0.7, 0.3],
            )
            return [pattern.pick_dst("h_0_0_0", rng) for _ in range(200)]

        assert draws(42) == draws(42)
        assert draws(42) != draws(43)  # the seed is actually consumed

    def test_modulated_arrivals_same_seed_same_stream(self):
        profile = LoadProfile.step(low=0.5, high=2.0, switch_at_s=20.0, end_s=40.0)

        def arrivals(seed):
            engine = EventEngine()
            topo = FatTree(p=4)
            events = []
            process = ModulatedArrivalProcess(
                engine=engine,
                pattern=StridePattern(topo),
                spec=WorkloadSpec(arrival_rate_per_host=0.5, duration_s=40.0),
                sink=lambda s, d, b: events.append((engine.now, s, d, b)),
                rng=np.random.default_rng(seed),
                profile=profile,
            )
            process.start()
            engine.run_until_idle()
            return events

        # Byte-identical: same instants, same endpoints, same sizes.
        assert arrivals(7) == arrivals(7)
        assert arrivals(7) != arrivals(8)
