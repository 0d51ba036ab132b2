"""Golden-trace regression snapshots.

Captures a digest of everything a scenario run settles on — the FCT
distribution, path-switch counts, per-link peak utilization, allocator
convergence rounds, and best-response dynamics step counts — for a fixed
set of seeded scenarios, and compares future runs against the stored
golden file. Any behavioral drift (an allocator change that moves a rate
by one part in a million, a scheduler change that shifts one flow) shows
up as a digest mismatch, turning "did this refactor change behavior?"
into a one-command question.

Modes: ``store`` writes the golden file, ``compare`` diffs a fresh
capture against it, ``update`` is store-over-existing (use after an
*intentional* behavior change, and say why in the commit).
:func:`replay_goldens` re-runs the golden scenarios under a reference
twin (:mod:`repro.validation.twins`) and diffs them against the same
file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.rng import RngStreams
from repro.common.units import MB, MBPS
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.simulator.network import Network
from repro.validation.twins import FULL_REFILL, SCALAR_SETTLE, Twin

#: Progress callback used by the golden capture/compare entry points.
ProgressFn = Optional[Callable[[str], None]]

PathLike = Union[str, Path]

#: Default location, relative to the repo root (where pytest and the CLI
#: run from).
DEFAULT_GOLDEN_PATH = Path("tests") / "goldens" / "golden_traces.json"

_ROUND = 6  # microsecond / sub-ppm resolution: below any real drift

#: The golden scenario set: small, fast, deterministic, covering three
#: schedulers and two topology families. ``fattree_dard_stride_storm``
#: is the one that runs DARD's control plane: its elephants shift, and a
#: link fails and is restored under them.
GOLDEN_SCENARIOS: Dict[str, ScenarioConfig] = {
    "fattree_ecmp_stride": ScenarioConfig(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        scheduler="ecmp",
        arrival_rate_per_host=0.05,
        duration_s=20.0,
        flow_size_bytes=16 * MB,
        seed=7,
    ),
    "fattree_dard_random": ScenarioConfig(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="random",
        scheduler="dard",
        arrival_rate_per_host=0.05,
        duration_s=20.0,
        flow_size_bytes=16 * MB,
        seed=11,
    ),
    "clos_vlb_staggered": ScenarioConfig(
        topology="clos",
        topology_params={
            "d_i": 4,
            "d_a": 4,
            "hosts_per_tor": 2,
            "link_bandwidth_bps": 100 * MBPS,
        },
        pattern="staggered",
        scheduler="vlb",
        arrival_rate_per_host=0.05,
        duration_s=20.0,
        flow_size_bytes=16 * MB,
        seed=3,
    ),
    "fattree_dard_stride_storm": ScenarioConfig(
        topology="fattree",
        topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        scheduler="dard",
        arrival_rate_per_host=0.1,
        duration_s=25.0,
        flow_size_bytes=48 * MB,
        seed=7,
        link_events=(
            ("fail", 12.0, "agg_0_0", "core_0_0"),
            ("restore", 18.0, "agg_0_0", "core_0_0"),
        ),
    ),
}

#: The twins ``repro validate`` replays against the golden file, each with
#: the golden fields it may change. Production's per-component fills count
#: a symmetric tie that spans components as one round per component, the
#: global fill counts it once, so the full-refill twin's round totals
#: differ while every rate (and thus every FCT) is identical; the scalar
#: settle loops change no field at all.
GOLDEN_TWINS: Tuple[Tuple[Twin, Tuple[str, ...]], ...] = (
    (FULL_REFILL, ("filling_iterations",)),
    (SCALAR_SETTLE, ()),
)


def _digest(values: Iterable[float]) -> str:
    """Stable content hash of a sequence of rounded numbers."""
    payload = ",".join(repr(round(float(v), _ROUND)) for v in values)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def capture_scenario(config: ScenarioConfig) -> dict:
    """Run one scenario and distill its golden trace."""
    network_box: List[Network] = []
    result = run_scenario(config, instrument=network_box.append)
    return _distill(result, network_box[0])


def _distill(result: ScenarioResult, network: Network) -> dict:
    """One finished run's golden trace."""
    fcts = sorted(result.fcts)
    stats = network.perf_stats()
    peaks = network.peak_utilization_summary()
    return {
        "flows_generated": result.flows_generated,
        "flows_completed": len(result.records),
        "fct_mean_s": round(result.mean_fct, _ROUND) if result.records else None,
        "fct_p50_s": round(_percentile(fcts, 0.50), _ROUND) if fcts else None,
        "fct_p99_s": round(_percentile(fcts, 0.99), _ROUND) if fcts else None,
        "fct_digest": _digest(fcts),
        "path_switches_total": int(sum(result.path_switches)),
        "dard_shifts": result.dard_shifts,
        "peak_elephants": result.peak_elephants,
        "peak_util_max": round(peaks["max"], _ROUND),
        "peak_util_mean": round(peaks["mean"], _ROUND),
        "links_saturated": peaks["saturated"],
        "realloc_calls": int(stats["realloc_calls"]),
        "filling_iterations": int(stats["filling_iterations"]),
    }


def capture_dynamics() -> dict:
    """Golden for Theorem-2 convergence: steps-to-Nash on a seeded game."""
    from repro.gametheory import run_best_response_dynamics
    from repro.gametheory.study import random_game_on
    from repro.topology import FatTree

    rng = RngStreams(5).stream("golden-dynamics")
    game = random_game_on(FatTree(p=4, link_bandwidth_bps=100 * MBPS), 12, rng)
    result = run_best_response_dynamics(game)
    return {
        "converged": result.converged,
        "steps_to_nash": result.num_steps,
        "final_strategy_digest": _digest(result.final),
    }


def capture_allocator() -> dict:
    """Golden for the allocator: rates + filling rounds on a seeded instance."""
    from repro.simulator.maxmin import _intern_demands, maxmin_allocate_indexed
    from repro.validation.oracles import random_allocation_case

    demands, capacities = random_allocation_case(random.Random(42))
    rows, weights, caps = _intern_demands(demands, capacities)
    fill = maxmin_allocate_indexed(rows, weights, caps)
    return {
        "demands": len(demands),
        "filling_iterations": int(fill.iterations),
        "rates_sum": round(float(np.sum(fill.rates)), _ROUND),
        "rates_digest": _digest(fill.rates),
    }


def collect_goldens(progress: ProgressFn = None) -> dict:
    """Run every golden capture and assemble the snapshot document."""
    scenarios = {}
    for name, config in GOLDEN_SCENARIOS.items():
        if progress is not None:
            progress(f"golden: capturing {name} ...")
        scenarios[name] = capture_scenario(config)
    return {
        "format": 1,
        "scenarios": scenarios,
        "dynamics": capture_dynamics(),
        "allocator": capture_allocator(),
    }


def store_goldens(path: PathLike = DEFAULT_GOLDEN_PATH, progress: ProgressFn = None) -> dict:
    """Capture and write the golden file; returns the document."""
    document = collect_goldens(progress=progress)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def _diff(prefix: str, golden: Any, current: Any, out: List[str]) -> None:
    if isinstance(golden, dict) and isinstance(current, dict):
        for key in sorted(set(golden) | set(current)):
            if key not in golden:
                out.append(f"{prefix}{key}: unexpected new key (value {current[key]!r})")
            elif key not in current:
                out.append(f"{prefix}{key}: missing (golden {golden[key]!r})")
            else:
                _diff(f"{prefix}{key}.", golden[key], current[key], out)
        return
    if isinstance(golden, float) and isinstance(current, float):
        if not math.isclose(golden, current, rel_tol=1e-6, abs_tol=1e-6):
            out.append(f"{prefix[:-1]}: {current!r} != golden {golden!r}")
        return
    if golden != current:
        out.append(f"{prefix[:-1]}: {current!r} != golden {golden!r}")


def compare_goldens(
    path: PathLike = DEFAULT_GOLDEN_PATH,
    document: Optional[dict] = None,
    progress: ProgressFn = None,
) -> List[str]:
    """Diff a fresh capture against the stored golden file.

    Returns a list of human-readable mismatches (empty = clean). A
    missing golden file is reported as one mismatch telling the caller to
    run store/update first.
    """
    path = Path(path)
    if not path.exists():
        return [f"golden file {path} does not exist; run with --golden update to create it"]
    with open(path) as handle:
        golden = json.load(handle)
    if document is None:
        document = collect_goldens(progress=progress)
    mismatches: List[str] = []
    _diff("", golden, document, mismatches)
    return mismatches


def replay_goldens(
    twin: Twin,
    exempt: Sequence[str] = (),
    path: PathLike = DEFAULT_GOLDEN_PATH,
    progress: ProgressFn = None,
) -> List[str]:
    """Re-run the golden scenarios under ``twin`` and diff against the file.

    The twin's bit-exactness claim, enforced end to end: every scenario
    digest (FCTs, path switches, utilization peaks, realloc counts) must
    match the stored golden, with only the ``exempt`` fields excused.
    Returns mismatch lines like :func:`compare_goldens`; a scenario the
    file lacks is one mismatch line, not an error.
    """
    path = Path(path)
    if not path.exists():
        return [f"golden file {path} does not exist; run with --golden update to create it"]
    with open(path) as handle:
        stored = json.load(handle).get("scenarios", {})
    mismatches: List[str] = []
    for name, config in GOLDEN_SCENARIOS.items():
        prefix = f"scenarios[{twin.oracle}].{name}"
        if name not in stored:
            mismatches.append(f"{prefix}: missing from golden file {path}")
            continue
        if progress is not None:
            progress(f"golden[{twin.oracle}]: capturing {name} ...")
        current = _distill(*twin.run(config))
        want = dict(stored[name])
        for field in exempt:
            want.pop(field, None)
            current.pop(field, None)
        _diff(f"{prefix}.", want, current, mismatches)
    return mismatches
