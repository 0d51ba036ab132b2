"""Reproducible parameter sweeps over scenario configurations.

A sweep takes a base :class:`ScenarioConfig` and a grid of overrides and
runs the cartesian product, one scenario per combination. Override keys
are config field names; dotted keys reach into the nested parameter dicts
(e.g. ``"topology_params.p"``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.experiments.runner import ScenarioConfig, ScenarioResult
from repro.analysis.parallel import parallel_sweep


def sweep(
    base: ScenarioConfig,
    grid: Dict[str, Sequence],
) -> List[Tuple[Dict[str, object], ScenarioResult]]:
    """Run every combination of the grid in this process; returns
    (overrides, result) pairs.

    :func:`~repro.analysis.parallel.parallel_sweep` with one worker: the
    same expansion, the same deterministic order (grid keys sorted,
    values in given order), each from the base seed — results are fully
    reproducible.
    """
    return parallel_sweep(base, grid, max_workers=1)


def sweep_rows(
    base: ScenarioConfig,
    grid: Dict[str, Sequence],
    extra_columns: Iterable[str] = (),
) -> List[Dict[str, object]]:
    """Sweep and flatten into report-ready rows (mean FCT and friends)."""
    rows = []
    for overrides, result in sweep(base, grid):
        row: Dict[str, object] = dict(overrides)
        row["mean_fct_s"] = result.mean_fct
        row["flows"] = len(result.records)
        row["control_bytes"] = result.control_bytes
        row["peak_elephants"] = result.peak_elephants
        for column in extra_columns:
            row[column] = getattr(result, column)
        rows.append(row)
    return rows
