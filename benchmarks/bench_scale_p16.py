"""Scale check: p=16 fat-tree (1024 hosts), the paper's middle ns-2 size.

The smaller fat-tree benches (p=4/8) carry the per-figure comparisons;
this one demonstrates the stack at four-digit host counts: DARD still
beats ECMP under stride while its per-flow stability bound holds, and the
whole simulation (including 1000+ host daemons polling monitors) completes
in minutes on a laptop. Raw rows, each with the scheduler's wall time,
and the process's peak RSS land in
``benchmarks/results/BENCH_scale_p16.json``. Run the bench in its own
process: the peak RSS is the whole process's.
"""

import json
import pathlib
import resource
import time

import numpy as np

from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig, improvement, run_scenario
from repro.experiments.figures import ExperimentOutput

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _run_pair():
    base = dict(
        topology="fattree",
        topology_params={"p": 16, "link_bandwidth_bps": 100 * MBPS},
        pattern="stride",
        arrival_rate_per_host=0.035,
        duration_s=40.0,
        flow_size_bytes=128 * MB,
        seed=1,
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
            "hosts": 1024,
            "flows": len(result.records),
            "mean_fct_s": result.mean_fct,
            "p90_switches": float(np.percentile(result.path_switches, 90))
            if result.path_switches
            else 0.0,
            "wall_s": round(wall_s, 2),
        }
        for name, (result, wall_s) in results.items()
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scale_p16.json").write_text(
        json.dumps(
            {"experiment": "scale_p16", "peak_rss_mb": round(peak_rss_mb, 1), "rows": rows},
            indent=2,
        )
        + "\n"
    )
    return ExperimentOutput(
        "scale_p16",
        "p=16 fat-tree (1024 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp.mean_fct, dard.mean_fct):.1%}, "
        f"peak RSS {peak_rss_mb:.0f} MB",
    )


def test_scale_p16(benchmark, save_output):
    output = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    save_output(output)
    by_sched = {row["scheduler"]: row for row in output.rows}
    gain = improvement(by_sched["ecmp"]["mean_fct_s"], by_sched["dard"]["mean_fct_s"])
    assert gain > 0.04
    # Stability holds at scale: 90th percentile of switches stays tiny
    # against the 64 available paths.
    assert by_sched["dard"]["p90_switches"] <= 4
