"""Tests for parallel scenario execution."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.analysis import parallel_sweep, run_scenarios_parallel, sweep
from repro.analysis.parallel import resolve_workers
from repro.experiments import ScenarioConfig

BASE = ScenarioConfig(
    topology="fattree",
    topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
    pattern="stride",
    scheduler="ecmp",
    arrival_rate_per_host=0.05,
    duration_s=15.0,
    flow_size_bytes=16 * MB,
    seed=1,
)


class TestResolveWorkers:
    def test_explicit_request_wins(self):
        assert resolve_workers(3) == 3

    def test_zero_or_negative_raises(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            resolve_workers(0)
        with pytest.raises(ConfigurationError, match="max_workers"):
            resolve_workers(-2)

    def test_default_is_at_least_one(self):
        assert resolve_workers(None) >= 1


class TestRunScenariosParallel:
    def test_empty(self):
        assert run_scenarios_parallel([]) == []

    def test_single_runs_serially(self):
        results = run_scenarios_parallel([BASE], max_workers=4)
        assert len(results) == 1 and results[0].records

    def test_parallel_matches_serial(self):
        import dataclasses

        configs = [dataclasses.replace(BASE, seed=s) for s in (1, 2, 3, 4)]
        serial = [r.mean_fct for r in run_scenarios_parallel(configs, max_workers=1)]
        parallel = [
            r.mean_fct for r in run_scenarios_parallel(configs, max_workers=2)
        ]
        assert parallel == serial

    def test_parallel_records_bit_identical_on_grid(self):
        # Determinism down to the last float bit, across schedulers and
        # both reallocation modes: worker processes must replay exactly
        # the event sequence a serial run produces.
        import dataclasses

        configs = [
            dataclasses.replace(
                BASE,
                scheduler=scheduler,
                seed=seed,
                duration_s=8.0,
                network_params={"incremental_realloc": incremental},
            )
            for scheduler in ("ecmp", "dard")
            for seed in (1, 2)
            for incremental in (False, True)
        ]

        def fingerprint(result):
            return [
                (r.flow_id, r.src, r.dst, r.start_time, r.end_time,
                 r.path_switches, r.retransmitted_bytes)
                for r in result.records
            ]

        serial = run_scenarios_parallel(configs, max_workers=1)
        parallel = run_scenarios_parallel(configs, max_workers=4)
        for one, other in zip(serial, parallel):
            assert fingerprint(one) == fingerprint(other)
        assert all(r.records for r in serial)

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            run_scenarios_parallel([BASE], max_workers=0)


class TestParallelSweep:
    def test_matches_serial_sweep(self):
        grid = {"seed": [1, 2], "scheduler": ["ecmp", "vlb"]}
        serial = sweep(BASE, grid)
        parallel = parallel_sweep(BASE, grid, max_workers=2)
        assert [o for o, _ in parallel] == [o for o, _ in serial]
        assert [r.mean_fct for _, r in parallel] == [r.mean_fct for _, r in serial]

    def test_empty_grid(self):
        results = parallel_sweep(BASE, {}, max_workers=2)
        assert len(results) == 1
