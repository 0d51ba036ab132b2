"""Parallel scenario execution across processes.

Scenario runs are embarrassingly parallel — each builds its own topology,
network, and RNG streams from a picklable :class:`ScenarioConfig` — so a
sweep can use every core. Results are returned in deterministic grid
order regardless of completion order, and each scenario is exactly as
reproducible as under the serial runner.

This is the simulator's one axis of parallelism: whole scenarios fan out
across worker processes, and each scenario runs serially inside its
worker. Splitting one scenario's max-min refills across workers was
tried and removed: one flow-link component usually holds nearly all of
a refill's work, so the split ran slower than serial (EXPERIMENTS.md
"Intra-scenario parallelism").
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario


def resolve_workers(requested: Optional[int]) -> int:
    """Worker count: the request, else the CPUs this process may use.

    Prefers the scheduling affinity mask (cgroup/taskset aware) over the
    raw core count: a container pinned to 2 of 64 cores should get 2
    workers, not 64. ``process_cpu_count`` (3.13+) is the same signal;
    ``os.cpu_count`` is the last resort.
    """
    if requested is not None:
        workers = int(requested)
        if workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {requested}")
        return workers
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:  # pragma: no cover - 3.13+
        return max(1, process_cpu_count() or 1)
    return max(1, os.cpu_count() or 1)


def run_scenarios_parallel(
    configs: Sequence[ScenarioConfig],
    max_workers: Optional[int] = None,
) -> List[ScenarioResult]:
    """Run many scenarios across processes; results in input order.

    ``max_workers`` defaults to one less than the CPUs this process may
    actually use (scheduler affinity via :func:`resolve_workers`, not the
    machine's raw core count — in a container pinned to 4 of 64 cores the
    default is 3), at least 1. With one config or one worker the serial
    path is used — no process-pool overhead, identical results. An empty
    ``configs`` returns ``[]`` before any pool is created.
    """
    configs = list(configs)
    if not configs:
        return []
    if max_workers is None:
        max_workers = max(1, resolve_workers(None) - 1)
    max_workers = resolve_workers(max_workers)
    if max_workers == 1 or len(configs) == 1:
        return [run_scenario(config) for config in configs]
    # Chunk the work so large sweeps amortize inter-process pickling
    # instead of round-tripping one config at a time; capped so every
    # worker still gets several chunks for load balance.
    chunksize = max(1, min(8, len(configs) // (max_workers * 4)))
    with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_scenario, configs, chunksize=chunksize))


def _apply_override(config: ScenarioConfig, key: str, value) -> ScenarioConfig:
    if "." in key:
        field_name, sub_key = key.split(".", 1)
        if "." in sub_key:
            raise ConfigurationError(f"override {key!r} nests too deep")
        current = getattr(config, field_name, None)
        if not isinstance(current, dict):
            raise ConfigurationError(f"{field_name!r} is not a parameter dict")
        updated = dict(current)
        updated[sub_key] = value
        return dataclasses.replace(config, **{field_name: updated})
    if not hasattr(config, key):
        raise ConfigurationError(f"unknown config field {key!r}")
    return dataclasses.replace(config, **{key: value})


def parallel_sweep(
    base: ScenarioConfig,
    grid: Dict[str, Sequence],
    max_workers: Optional[int] = None,
) -> List[Tuple[Dict[str, object], ScenarioResult]]:
    """Run every combination of the grid; returns (overrides, result) pairs.

    Override keys are config field names; dotted keys reach into the
    nested parameter dicts (e.g. ``"topology_params.p"``). Combinations
    come back in deterministic order (grid keys sorted, values in given
    order), each from the base seed, whatever the worker count; an empty
    grid is the base config alone. :func:`repro.analysis.sweep.sweep` is
    this with one worker.
    """
    keys = sorted(grid)
    overrides_list: List[Dict[str, object]] = []
    configs: List[ScenarioConfig] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, values))
        config = base
        for key, value in overrides.items():
            config = _apply_override(config, key, value)
        overrides_list.append(overrides)
        configs.append(config)
    results = run_scenarios_parallel(configs, max_workers=max_workers)
    return list(zip(overrides_list, results))
