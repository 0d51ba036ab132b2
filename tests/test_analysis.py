"""Tests for the analysis tooling: topology reports, sweeps, export,
and rate/utilization sampling."""

import csv
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.analysis import (
    LinkUtilizationSampler,
    RateSampler,
    analyze_topology,
    records_to_csv,
    results_to_json,
    rows_to_csv,
    sweep,
)
from repro.analysis.sweep import sweep_rows
from repro.experiments import ScenarioConfig, run_scenario
from repro.simulator import Network
from repro.topology import FatTree

from tests.conftest import pair_component


class TestTopologyReport:
    def test_fattree_full_bisection(self, fattree4):
        report = analyze_topology(fattree4)
        assert report.full_bisection
        assert report.access_oversubscription == pytest.approx(1.0)
        assert report.aggregation_oversubscription == pytest.approx(1.0)
        # 16 hosts at 100 Mbps -> bisection 0.8 Gbps.
        assert report.bisection_bandwidth_bps == pytest.approx(8 * 100 * MBPS)
        assert report.min_paths_inter_pod == report.max_paths_inter_pod == 4

    def test_threetier_oversubscribed(self, threetier_small):
        report = analyze_topology(threetier_small)
        assert not report.full_bisection
        assert report.access_oversubscription == pytest.approx(2.5)
        assert report.aggregation_oversubscription == pytest.approx(1.5)

    def test_clos_diversity(self, clos44):
        report = analyze_topology(clos44)
        assert report.min_paths_inter_pod == 8  # 2 * D_A

    def test_counts(self, fattree4):
        report = analyze_topology(fattree4)
        assert report.num_hosts == 16
        assert report.num_switches == 20
        assert "bisection" in report.render()


class TestSweep:
    BASE = ScenarioConfig(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        scheduler="ecmp",
        arrival_rate_per_host=0.05,
        duration_s=20.0,
        flow_size_bytes=32 * MB,
        seed=3,
    )

    def test_grid_cartesian_product(self):
        results = sweep(self.BASE, {"scheduler": ["ecmp", "vlb"], "seed": [1, 2]})
        assert len(results) == 4
        combos = {(o["scheduler"], o["seed"]) for o, _ in results}
        assert combos == {("ecmp", 1), ("ecmp", 2), ("vlb", 1), ("vlb", 2)}

    def test_dotted_override(self):
        results = sweep(self.BASE, {"topology_params.p": [4]})
        assert results[0][1].records  # ran fine with override applied

    def test_empty_grid_runs_base(self):
        results = sweep(self.BASE, {})
        assert len(results) == 1 and results[0][0] == {}

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(self.BASE, {"bogus_field": [1]})

    def test_too_deep_override_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(self.BASE, {"topology_params.a.b": [1]})

    def test_sweep_rows_flatten(self):
        rows = sweep_rows(self.BASE, {"seed": [1, 2]})
        assert len(rows) == 2
        assert all("mean_fct_s" in row and "flows" in row for row in rows)


class TestExport:
    def _result(self):
        return run_scenario(TestSweep.BASE)

    def test_records_to_csv(self, tmp_path):
        result = self._result()
        path = tmp_path / "records.csv"
        n = records_to_csv(result.records, path)
        assert n == len(result.records)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == n
        assert {"flow_id", "fct", "retx_rate"} <= set(rows[0])

    def test_rows_to_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        n = rows_to_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}], path)
        assert n == 2
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["a"] == "1"
        assert set(rows[0]) == {"a", "b", "c"}

    def test_rows_to_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert rows_to_csv([], path) == 0

    def test_results_to_json_handles_nan(self, tmp_path):
        path = tmp_path / "out.json"
        results_to_json({"x": float("nan"), "y": [float("inf"), 1.0]}, path)
        data = json.loads(path.read_text())
        assert data == {"x": None, "y": [None, 1.0]}

    def test_results_to_json_dataclass(self, tmp_path):
        from repro.experiments.figures import ExperimentOutput

        output = ExperimentOutput("x", "title", rows=[{"a": 1}])
        path = tmp_path / "exp.json"
        results_to_json(output, path)
        data = json.loads(path.read_text())
        assert data["experiment_id"] == "x"
        assert data["rows"] == [{"a": 1}]


class TestSamplers:
    def _net(self):
        return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))

    def _start(self, net, src, dst, size=50 * MB, index=0):
        return net.start_flow(src, dst, size, [pair_component(net, src, dst, index)])

    def test_rate_sampler_records_series(self):
        net = self._net()
        sampler = RateSampler(net, interval_s=0.5)
        flow = self._start(net, "h_0_0_0", "h_1_0_0")
        net.engine.run_until(2.0)
        series = sampler.series_for(flow.flow_id)
        assert len(series) == 4
        assert all(rate == pytest.approx(100 * MBPS) for _, rate in series)

    def test_aggregate_throughput(self):
        net = self._net()
        sampler = RateSampler(net, interval_s=1.0)
        self._start(net, "h_0_0_0", "h_1_0_0")
        self._start(net, "h_0_0_1", "h_2_0_0", index=2)
        net.engine.run_until(2.0)
        totals = sampler.aggregate_throughput()
        assert totals and totals[0][1] == pytest.approx(200 * MBPS)

    def test_utilization_sampler(self):
        net = self._net()
        sampler = LinkUtilizationSampler(
            net, [("h_0_0_0", "tor_0_0"), ("core_0_0", "agg_0_0")], interval_s=1.0
        )
        self._start(net, "h_0_0_0", "h_1_0_0")
        net.engine.run_until(3.0)
        assert sampler.peak_utilization(("h_0_0_0", "tor_0_0")) == pytest.approx(1.0)

    def test_validation(self):
        net = self._net()
        with pytest.raises(ConfigurationError):
            RateSampler(net, interval_s=0.0)
        with pytest.raises(ConfigurationError):
            LinkUtilizationSampler(net, [("a", "b")])
