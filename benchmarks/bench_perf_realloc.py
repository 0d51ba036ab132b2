"""Reallocation benchmark: bottleneck-region refills vs full refills.

Runs the same seeded DARD scenario twice — once under the
:data:`~repro.validation.twins.FULL_REFILL` reference twin (every
membership change triggers a global water-fill) and once in production
(each refill re-rates only the bottleneck region the change reaches,
its boundary pinned, rates spliced into the persistent load and
saturation arrays) — and checks three things:

* **equivalence**: the two runs produce equal flow records, every
  field — the region refill's bit-exactness contract, end to end;
* **locality**: the majority of incremental rounds re-rate fewer flows
  than are live (otherwise the machinery is pure overhead);
* **speed**: whole-scenario wall time improves by the acceptance factor.

Each row also reports what the regions held: the flows re-rated and
pinned as boundary (summed over refills, and per refill) and the fills
rerun because a boundary demand was contradicted.

Output rows land in ``benchmarks/results/perf_realloc.txt`` and, through
the shared provenance writer (``artifacts.py``), in
``benchmarks/results/BENCH_perf_realloc.json``, so the perf trajectory is
tracked across PRs. Scale and duration are env-overridable
(``BENCH_PERF_REALLOC_P``, ``BENCH_PERF_REALLOC_DURATION``) so CI can run
a fast smoke at p=4 while the default exercises p=16; the locality and
speedup gates only apply at p >= 16 where components are plentiful.
Runs off the default budget write ``perf_realloc.smoke.txt`` and
``BENCH_perf_realloc.smoke.json`` instead, so they never overwrite the
committed p=16 result.
"""

import json
import time

from artifacts import RESULTS_DIR, read_budget, write_artifact
from repro.common.units import MB, MBPS
from repro.experiments.figures import ExperimentOutput
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.validation.twins import FULL_REFILL

BUDGET = read_budget("perf_realloc", p=16, duration=15.0)
P = int(BUDGET.params["p"])
DURATION_S = BUDGET.params["duration"]
RESULT_JSON = RESULTS_DIR / f"BENCH_{BUDGET.name}.json"

#: Whole-scenario speedup the region refill must deliver at p=16.
MIN_SPEEDUP = 1.5

#: Fraction of incremental rounds that must re-rate fewer flows than are live.
MIN_SUBSET_FRACTION = 0.5


CONFIG = ScenarioConfig(
    topology="fattree",
    topology_params={"p": P, "link_bandwidth_bps": 100 * MBPS},
    pattern="stride",
    scheduler="dard",
    arrival_rate_per_host=0.035,
    duration_s=DURATION_S,
    flow_size_bytes=128 * MB,
    seed=1,
)


def _production(config):
    network_box = []
    result = run_scenario(config, instrument=network_box.append)
    return result, network_box[0]


def _run_mode(mode, run):
    """Time one whole run; ``run(config)`` returns ``(result, network)``."""
    started = time.perf_counter()
    result, network = run(CONFIG)
    wall_s = time.perf_counter() - started
    stats = network.perf_stats()
    incr = int(stats["realloc_incremental"])
    calls = int(stats["realloc_calls"])
    row = {
        "mode": mode,
        "p": P,
        "duration_s": DURATION_S,
        "wall_s": wall_s,
        "flows_completed": len(result.records),
        "realloc_calls": calls,
        "realloc_full": int(stats["realloc_full"]),
        "realloc_incremental": incr,
        "realloc_subset": int(stats["realloc_subset"]),
        "subset_fraction": stats["realloc_subset"] / incr if incr else 0.0,
        "realloc_reruns": int(stats["realloc_reruns"]),
        "flows_rerated": int(stats["flows_rerated"]),
        "flows_boundary": int(stats["flows_boundary"]),
        "flows_preserved": int(stats["flows_preserved"]),
        "region_flows_per_refill": stats["flows_rerated"] / incr if incr else 0.0,
        "boundary_flows_per_refill": stats["flows_boundary"] / incr if incr else 0.0,
        "realloc_time_s": stats["realloc_time_s"],
    }
    return row, result


def _run_all():
    full_row, full_result = _run_mode("full", FULL_REFILL.run)
    incr_row, incr_result = _run_mode("incremental", _production)

    # Bit-exactness, end to end: every completed flow's record equal,
    # field for field.
    assert full_result.records == incr_result.records, (
        f"incremental mode diverged: {len(full_result.records)} full vs "
        f"{len(incr_result.records)} incremental records"
    )

    speedup = full_row["wall_s"] / incr_row["wall_s"]
    rows = [full_row, dict(incr_row, speedup=speedup)]
    write_artifact(BUDGET, rows)
    return ExperimentOutput(
        BUDGET.name,
        "scenario wall time: bottleneck-region vs full reallocation",
        rows=[
            {
                "mode": r["mode"],
                "wall_s": round(r["wall_s"], 2),
                "realloc_calls": r["realloc_calls"],
                "subset_fraction": round(r["subset_fraction"], 2),
                "region_flows": r["flows_rerated"],
                "boundary_flows": r["flows_boundary"],
                "reruns": r["realloc_reruns"],
            }
            for r in rows
        ],
        notes=f"p={P} dard stride, {DURATION_S:.0f}s, full row under the "
        f"{FULL_REFILL.oracle} twin, records verified identical across "
        f"modes; speedup {speedup:.2f}x",
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
