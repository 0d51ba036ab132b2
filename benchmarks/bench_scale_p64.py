"""Scale check: p=64 fat-tree (65,536 hosts), 8x past the paper's largest.

The columnar FlowStore is what makes five-digit host counts tractable on
the data plane: with tens of thousands of concurrent flows, the per-event
settle/ETA passes are single numpy sweeps over the SoA columns instead of
Python loops over ``flows.values()``. Together with the batched control
plane (monitor registry + matrix Algorithm 1) this bench pushes to 65,536
hosts and checks the paper's story survives: DARD still beats ECMP under
stride at a scale three orders of magnitude past the testbed.

The full run is a multi-minute simulation, so every knob is
env-overridable for CI's short budget: ``BENCH_SCALE_P64_DURATION``
(default 10 sim-s), ``BENCH_SCALE_P64_RATE`` (arrivals/host/s) and
``BENCH_SCALE_P64_DRAIN`` (post-arrival drain cap). Both schedulers must
complete flows and report a positive mean FCT at any budget; the
DARD-vs-ECMP improvement is reported in the notes rather than gated —
at short CI budgets the drain cap can truncate either side's tail. Raw
rows, each with the scheduler's wall time, and the process's peak RSS
land in ``benchmarks/results/BENCH_scale_p64.json``; a run off the
default budget writes ``BENCH_scale_p64.smoke.json`` and
``scale_p64.smoke.txt`` instead, so it never overwrites the committed
full-budget result. The peak RSS must stay under
:data:`PEAK_RSS_CEILING_MB` at any budget, so a memory regression fails
the bench instead of growing quietly. Run the bench in its own process:
the peak RSS is the whole process's.
"""

import json
import os
import pathlib
import resource
import time

import numpy as np

from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig, improvement, run_scenario
from repro.experiments.figures import ExperimentOutput

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_BUDGET = (10.0, 0.003, 300.0)
DURATION_S = float(os.environ.get("BENCH_SCALE_P64_DURATION", FULL_BUDGET[0]))
RATE = float(os.environ.get("BENCH_SCALE_P64_RATE", FULL_BUDGET[1]))
DRAIN_S = float(os.environ.get("BENCH_SCALE_P64_DRAIN", FULL_BUDGET[2]))

#: Runs off the full budget get their own artifact names (module docstring).
EXPERIMENT = (
    "scale_p64" if (DURATION_S, RATE, DRAIN_S) == FULL_BUDGET else "scale_p64.smoke"
)

#: 25% above the full-budget pair's peak RSS, 684 MB (EXPERIMENTS.md).
PEAK_RSS_CEILING_MB = 855.0


def _run_pair():
    base = dict(
        topology="fattree",
        topology_params={"p": 64, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        arrival_rate_per_host=RATE,
        duration_s=DURATION_S,
        flow_size_bytes=128 * MB,
        seed=1,
        drain_limit_s=DRAIN_S,
    )
    results = {}
    for name in ("ecmp", "dard"):
        started = time.perf_counter()
        result = run_scenario(ScenarioConfig(scheduler=name, **base))
        results[name] = (result, time.perf_counter() - started)
    ecmp, dard = results["ecmp"][0], results["dard"][0]
    rows = [
        {
            "scheduler": name,
            "hosts": 65536,
            "flows": len(result.records),
            "mean_fct_s": result.mean_fct,
            "shifts": result.dard_shifts,
            "p90_switches": float(np.percentile(result.path_switches, 90))
            if result.path_switches
            else 0.0,
            "wall_s": round(wall_s, 2),
        }
        for name, (result, wall_s) in results.items()
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{EXPERIMENT}.json").write_text(
        json.dumps(
            {"experiment": EXPERIMENT, "peak_rss_mb": round(peak_rss_mb, 1), "rows": rows},
            indent=2,
        )
        + "\n"
    )
    output = ExperimentOutput(
        EXPERIMENT,
        "p=64 fat-tree (65,536 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp.mean_fct, dard.mean_fct):.1%}, "
        f"duration {DURATION_S:.0f}s, rate {RATE}/host/s, "
        f"peak RSS {peak_rss_mb:.0f} MB",
    )
    return output, peak_rss_mb


def test_scale_p64(benchmark, save_output):
    output, peak_rss_mb = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    save_output(output)
    assert peak_rss_mb < PEAK_RSS_CEILING_MB, f"peak RSS {peak_rss_mb:.0f} MB"
    by_sched = {row["scheduler"]: row for row in output.rows}
    assert by_sched["ecmp"]["flows"] > 0
    assert by_sched["dard"]["flows"] > 0
    assert by_sched["ecmp"]["mean_fct_s"] > 0.0
    assert by_sched["dard"]["mean_fct_s"] > 0.0
    # Stability at scale: with 1024 equal-cost paths per pair and light
    # per-host load, 90% of flows never move at all.
    assert by_sched["dard"]["p90_switches"] <= 1
