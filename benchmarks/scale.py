"""Shared runner for the ``bench_scale_p*.py`` fat-tree scale benches.

Each scale bench runs ECMP and then DARD once on one large fat-tree
under stride traffic and gates on the outcome. This module holds what
they share:

* :func:`scale_budget` reads a bench's simulated budget; each knob can
  be overridden from the environment as ``BENCH_<EXPERIMENT>_<KNOB>``
  (p=32 and p=64; the p=16 bench always runs its full budget);
* :func:`run_pair` runs both schedulers and returns one row each, with
  the scheduler's wall time;
* :func:`write_artifact` writes ``results/BENCH_<name>.json``: the rows,
  the process's peak RSS, the budget and the run's provenance (commit,
  CPU count, Python and numpy versions, the environment overrides).

A run off the full budget is a smoke run: its artifacts are named
``<experiment>.smoke`` so that it never overwrites the committed
full-budget result. Run each bench in its own process, because the
peak RSS is the whole process's.
"""

import json
import os
import pathlib
import platform
import resource
import subprocess
import time
from typing import Dict, List, NamedTuple

import numpy as np

from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig, run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class ScaleBudget(NamedTuple):
    #: artifact name: the experiment id, with ``.smoke`` off the full budget.
    name: str
    #: knob -> value in effect.
    params: Dict[str, float]
    #: environment variable -> value, for every knob set from the environment.
    overrides: Dict[str, str]
    #: every knob at its default.
    full: bool


def scale_budget(experiment: str, **defaults: float) -> ScaleBudget:
    """The budget knobs in effect: ``defaults`` unless overridden."""
    params: Dict[str, float] = {}
    overrides: Dict[str, str] = {}
    for knob, default in defaults.items():
        variable = f"BENCH_{experiment.upper()}_{knob.upper()}"
        raw = os.environ.get(variable)
        params[knob] = default if raw is None else float(raw)
        if raw is not None:
            overrides[variable] = raw
    full = params == defaults
    name = experiment if full else f"{experiment}.smoke"
    return ScaleBudget(name, params, overrides, full)


def run_pair(p: int, **config) -> List[dict]:
    """Run ECMP, then DARD, on a p-pod stride fat-tree; one row each."""
    rows = []
    for scheduler in ("ecmp", "dard"):
        started = time.perf_counter()
        result = run_scenario(
            ScenarioConfig(
                topology="fattree",
                topology_params={"p": p, "link_bandwidth_bps": 100 * MBPS},
                pattern="stride",
                flow_size_bytes=128 * MB,
                scheduler=scheduler,
                seed=1,
                **config,
            )
        )
        wall_s = time.perf_counter() - started
        switches = result.path_switches
        rows.append(
            {
                "scheduler": scheduler,
                "hosts": p**3 // 4,
                "flows": len(result.records),
                "mean_fct_s": result.mean_fct,
                "shifts": result.dard_shifts,
                "p90_switches": float(np.percentile(switches, 90)) if switches else 0.0,
                "wall_s": round(wall_s, 2),
            }
        )
    return rows


def _commit() -> str:
    """The checked-out commit, with ``+dirty`` when the tree has edits."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=RESULTS_DIR.parent, capture_output=True,
            text=True, check=True,
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        return head + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else head
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_artifact(budget: ScaleBudget, rows: List[dict]) -> float:
    """Write ``results/BENCH_<budget.name>.json``; returns the peak RSS in MB."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    document = {
        "experiment": budget.name,
        "budget": "full" if budget.full else "smoke",
        "params": budget.params,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "provenance": {
            "commit": _commit(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "env_overrides": budget.overrides,
        },
        "rows": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{budget.name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return peak_rss_mb
