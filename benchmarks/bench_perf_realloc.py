"""Reallocation benchmark: incremental component-scoped vs full refills.

Runs the same seeded DARD scenario twice — once with the incremental
reallocator disabled (every membership change triggers a global
water-fill) and once enabled (only dirty flow-link components are
re-filled, rates spliced into the persistent load array) — and checks
three things:

* **equivalence**: the two runs produce equal flow records, every
  field — the incremental mode's bit-exactness contract, end to end;
* **locality**: the majority of incremental rounds re-rate fewer flows
  than are live (otherwise the machinery is pure overhead);
* **speed**: whole-scenario wall time improves by the acceptance factor.

Output rows land in ``benchmarks/results/perf_realloc.txt`` and the raw
numbers in ``benchmarks/results/BENCH_perf_realloc.json`` so the perf
trajectory is tracked across PRs. Scale and duration are env-overridable
(``BENCH_PERF_REALLOC_P``, ``BENCH_PERF_REALLOC_DURATION``) so CI can run
a fast smoke at p=4 while the default exercises p=16; the locality and
speedup gates only apply at p >= 16 where components are plentiful.
Smoke runs (p < 16) write ``perf_realloc.smoke.txt`` and
``BENCH_perf_realloc.smoke.json`` instead, so they never overwrite the
committed p=16 result.
"""

import json
import os
import pathlib
import time

from repro.common.units import MB, MBPS
from repro.experiments.figures import ExperimentOutput
from repro.experiments.runner import ScenarioConfig, run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

P = int(os.environ.get("BENCH_PERF_REALLOC_P", "16"))
DURATION_S = float(os.environ.get("BENCH_PERF_REALLOC_DURATION", "15"))

#: Whole-scenario speedup the incremental mode must deliver at p=16.
MIN_SPEEDUP = 1.5

#: Fraction of incremental rounds that must re-rate fewer flows than are live.
MIN_SUBSET_FRACTION = 0.5

#: Smoke runs get their own artifact names (see the module docstring).
EXPERIMENT = "perf_realloc" if P >= 16 else "perf_realloc.smoke"
RESULT_JSON = RESULTS_DIR / f"BENCH_{EXPERIMENT}.json"


def _config(incremental):
    return ScenarioConfig(
        topology="fattree",
        topology_params={"p": P, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        scheduler="dard",
        arrival_rate_per_host=0.035,
        duration_s=DURATION_S,
        flow_size_bytes=128 * MB,
        seed=1,
        network_params={"incremental_realloc": incremental},
    )


def _run_mode(incremental):
    network_box = []
    started = time.perf_counter()
    result = run_scenario(_config(incremental), instrument=network_box.append)
    wall_s = time.perf_counter() - started
    stats = network_box[0].perf_stats()
    incr = int(stats["realloc_incremental"])
    row = {
        "mode": "incremental" if incremental else "full",
        "p": P,
        "duration_s": DURATION_S,
        "wall_s": wall_s,
        "flows_completed": len(result.records),
        "realloc_calls": int(stats["realloc_calls"]),
        "realloc_full": int(stats["realloc_full"]),
        "realloc_incremental": incr,
        "realloc_subset": int(stats["realloc_subset"]),
        "subset_fraction": stats["realloc_subset"] / incr if incr else 0.0,
        "components_touched": int(stats["components_touched"]),
        "flows_rerated": int(stats["flows_rerated"]),
        "flows_preserved": int(stats["flows_preserved"]),
        "realloc_time_s": stats["realloc_time_s"],
    }
    return row, result


def _run_all():
    full_row, full_result = _run_mode(incremental=False)
    incr_row, incr_result = _run_mode(incremental=True)

    # Bit-exactness, end to end: every completed flow's record equal,
    # field for field.
    assert full_result.records == incr_result.records, (
        f"incremental mode diverged: {len(full_result.records)} full vs "
        f"{len(incr_result.records)} incremental records"
    )

    speedup = full_row["wall_s"] / incr_row["wall_s"]
    rows = [full_row, dict(incr_row, speedup=speedup)]
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_JSON.write_text(
        json.dumps({"experiment": EXPERIMENT, "rows": rows}, indent=2) + "\n"
    )
    return ExperimentOutput(
        EXPERIMENT,
        "scenario wall time: incremental component-scoped vs full reallocation",
        rows=[
            {
                "mode": r["mode"],
                "wall_s": round(r["wall_s"], 2),
                "realloc_calls": r["realloc_calls"],
                "subset_fraction": round(r["subset_fraction"], 2),
                "flows_preserved": r["flows_preserved"],
            }
            for r in rows
        ],
        notes=f"p={P} dard stride, {DURATION_S:.0f}s, records verified "
        f"identical across modes; speedup {speedup:.2f}x",
    )


def test_perf_realloc(benchmark, save_output):
    output = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    save_output(output)
    rows = json.loads(RESULT_JSON.read_text())["rows"]
    incr = rows[1]
    assert incr["realloc_incremental"] > 0, incr
    if P >= 16:
        # Rich component structure only emerges at scale; the p=4 CI smoke
        # checks equivalence and telemetry but not locality or speed.
        assert incr["subset_fraction"] >= MIN_SUBSET_FRACTION, incr
        assert incr["speedup"] >= MIN_SPEEDUP, incr
