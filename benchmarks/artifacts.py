"""Budgets and provenance-stamped artifacts shared by the benches.

Every bench that writes ``results/BENCH_<name>.json`` goes through this
module:

* :func:`read_budget` reads a bench's budget; each knob can be
  overridden from the environment as ``BENCH_<EXPERIMENT>_<KNOB>``;
* :func:`write_artifact` writes ``results/BENCH_<name>.json``: the rows,
  a peak RSS, the budget and the run's provenance (commit, CPU count,
  Python and numpy versions, the environment overrides);
* :func:`run_pair` runs ECMP and then DARD once on one large stride
  fat-tree, in a spawned child process, and returns one row each, with
  the scheduler's wall time, and the child's peak RSS (the
  ``bench_scale_p*.py`` scale benches, whose gates read that peak).

A run off the full budget is a smoke run: its artifacts are named
``<experiment>.smoke`` so that it never overwrites the committed
full-budget result. The scale benches' peak RSS is their own child's,
so it does not depend on what else ran in the pytest process; a bench
that passes no peak to :func:`write_artifact` records the whole
process's.
"""

import json
import multiprocessing
import os
import pathlib
import platform
import resource
import subprocess
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig, run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class Budget(NamedTuple):
    #: artifact name: the experiment id, with ``.smoke`` off the full budget.
    name: str
    #: knob -> value in effect.
    params: Dict[str, float]
    #: environment variable -> value, for every knob set from the environment.
    overrides: Dict[str, str]
    #: every knob at its default.
    full: bool


def read_budget(experiment: str, **defaults: float) -> Budget:
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
    return Budget(name, params, overrides, full)


def run_pair(p: int, **config) -> Tuple[List[dict], float]:
    """Run ECMP, then DARD, on a p-pod stride fat-tree; one row each.

    Both run in one spawned child process, a fresh interpreter, so the
    returned peak RSS (MB) is the pair's own: what ran earlier in this
    process does not raise it.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_pair_in_this_process, (p,), config)


def _peak_rss_mb() -> float:
    """This process's peak RSS so far, in MB.

    Linux's ``VmHWM``: the high-water mark of this process image alone.
    ``ru_maxrss`` also counts the RSS the process had before its
    ``exec``, and a spawned child is forked from this whole pytest
    process before it execs. Elsewhere, ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _pair_in_this_process(p: int, **config) -> Tuple[List[dict], float]:
    """:func:`run_pair`'s work: the rows, then this process's peak RSS."""
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
    return rows, _peak_rss_mb()


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


def write_artifact(
    budget: Budget, rows: List[dict], peak_rss_mb: Optional[float] = None
) -> float:
    """Write ``results/BENCH_<budget.name>.json``; returns the peak RSS in MB.

    ``peak_rss_mb`` is the peak of the process that ran the rows (a
    :func:`run_pair` child); without it, this process's peak is recorded.
    """
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()
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
