"""Tests for composite patterns through the runner and the custom-scheduler
extension path the examples demonstrate."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.experiments import ScenarioConfig, run_scenario
from repro.scheduling import Scheduler, SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree
from repro.validation import InvariantChecker
from repro.workloads import CompositePattern, make_pattern

from tests.conftest import flow_path


class TestCompositeViaMakePattern:
    def test_two_entry_mix(self, fattree4):
        pattern = make_pattern(
            "composite", fattree4, mix=[["staggered", 0.5], ["stride", 0.5]]
        )
        assert isinstance(pattern, CompositePattern)
        assert pattern.weights == [0.5, 0.5]

    def test_three_entry_mix_with_kwargs(self, fattree4):
        pattern = make_pattern(
            "composite", fattree4,
            mix=[["staggered", 0.7, {"tor_p": 0.9, "pod_p": 0.05}], ["random", 0.3]],
        )
        assert pattern.patterns[0].tor_p == 0.9

    def test_missing_mix_rejected(self, fattree4):
        with pytest.raises(ConfigurationError):
            make_pattern("composite", fattree4)

    def test_extra_kwargs_rejected(self, fattree4):
        with pytest.raises(ConfigurationError):
            make_pattern("composite", fattree4, mix=[["stride", 1.0]], step=2)

    def test_malformed_entry_rejected(self, fattree4):
        with pytest.raises(ConfigurationError):
            make_pattern("composite", fattree4, mix=[["stride"]])

    def test_runner_accepts_composite(self):
        result = run_scenario(
            ScenarioConfig(
                topology="fattree",
                topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
                pattern="composite",
                pattern_params={"mix": [["staggered", 0.7], ["stride", 0.3]]},
                scheduler="ecmp",
                arrival_rate_per_host=0.05,
                duration_s=20.0,
                flow_size_bytes=16 * MB,
                seed=4,
            )
        )
        assert result.records


class LeastLoadedScheduler(Scheduler):
    """The examples' custom scheduler, inlined for testing the plug-in API."""

    name = "least-loaded"

    def choose_components(self, src, dst):
        network = self.ctx.network
        paths, alive = self.alive_paths(src, dst)
        best_index, best_key = None, None
        for index in alive:
            full = self.ctx.topology.host_path(src, dst, paths[index])
            loads = [
                network.link_state(u, v).total_flows for u, v in zip(full, full[1:])
            ]
            key = (max(loads), sum(loads))
            if best_key is None or key < best_key:
                best_key, best_index = key, index
        return [network.component(src, dst, paths, best_index)]


class TestCustomSchedulerPlugin:
    def _ctx(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        return SchedulerContext(
            network=Network(topo),
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )

    def test_avoids_loaded_paths(self):
        ctx = self._ctx()
        scheduler = LeastLoadedScheduler()
        scheduler.attach(ctx)
        # Place four flows between the same pair: each should land on a
        # different path because earlier ones load their bottlenecks.
        flows = [scheduler.place("h_0_0_0", "h_1_0_0", 200 * MB) for _ in range(4)]
        paths = {f.components[0].index for f in flows}
        assert len(paths) == 4

    def test_respects_failures_via_alive_paths(self):
        ctx = self._ctx()
        scheduler = LeastLoadedScheduler()
        scheduler.attach(ctx)
        ctx.network.fail_link("agg_0_0", "core_0_0")
        for _ in range(6):
            flow = scheduler.place("h_0_0_0", "h_1_0_0", 10 * MB)
            assert ctx.network.path_alive(flow_path(ctx.topology, flow))

    def test_works_with_arrival_process_end_to_end(self):
        from repro.workloads import ArrivalProcess, StridePattern, WorkloadSpec

        ctx = self._ctx()
        scheduler = LeastLoadedScheduler()
        scheduler.attach(ctx)
        ArrivalProcess(
            engine=ctx.engine,
            pattern=StridePattern(ctx.topology),
            spec=WorkloadSpec(arrival_rate_per_host=0.1, duration_s=15.0,
                              flow_size_bytes=8 * MB),
            sink=scheduler.place,
            rng=np.random.default_rng(2),
        ).start()
        ctx.engine.run_until(60.0)
        assert ctx.network.records
        InvariantChecker(ctx.network).run_checks()
