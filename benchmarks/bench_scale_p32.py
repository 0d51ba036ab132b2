"""Scale check: p=32 fat-tree (8192 hosts), past the paper's largest size.

The batched control plane (monitor registry + matrix Algorithm 1 +
integer-indexed flow vectors) is what makes four-digit daemon fleets
tractable; this bench pushes to 8192 hosts and checks the paper's story
survives: DARD still beats ECMP under stride and the per-flow stability
bound tightens (p90 path switches <= 1 at this scale's light per-host
load).

The full run is a multi-minute simulation, so every knob is
env-overridable for CI's short budget: ``BENCH_SCALE_P32_DURATION``
(default 25 sim-s), ``BENCH_SCALE_P32_RATE`` (arrivals/host/s) and
``BENCH_SCALE_P32_DRAIN`` (post-arrival drain cap). The DARD-vs-ECMP
gain gate and the stability gate hold at any budget. Raw rows, each
with the scheduler's wall time, and the process's peak RSS land in
``benchmarks/results/BENCH_scale_p32.json``; a run off the default
budget writes ``BENCH_scale_p32.smoke.json`` and ``scale_p32.smoke.txt``
instead, so it never overwrites the committed full-budget result. Run
the bench in its own process: the peak RSS is the whole process's.
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

FULL_BUDGET = (25.0, 0.012, 600.0)
DURATION_S = float(os.environ.get("BENCH_SCALE_P32_DURATION", FULL_BUDGET[0]))
RATE = float(os.environ.get("BENCH_SCALE_P32_RATE", FULL_BUDGET[1]))
DRAIN_S = float(os.environ.get("BENCH_SCALE_P32_DRAIN", FULL_BUDGET[2]))

#: Runs off the full budget get their own artifact names (module docstring).
EXPERIMENT = (
    "scale_p32" if (DURATION_S, RATE, DRAIN_S) == FULL_BUDGET else "scale_p32.smoke"
)


def _run_pair():
    base = dict(
        topology="fattree",
        topology_params={"p": 32, "link_bandwidth_bps": 100 * MBPS},
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
            "hosts": 8192,
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
    return ExperimentOutput(
        EXPERIMENT,
        "p=32 fat-tree (8192 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp.mean_fct, dard.mean_fct):.1%}, "
        f"duration {DURATION_S:.0f}s, rate {RATE}/host/s, "
        f"peak RSS {peak_rss_mb:.0f} MB",
    )


def test_scale_p32(benchmark, save_output):
    output = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    save_output(output)
    by_sched = {row["scheduler"]: row for row in output.rows}
    assert by_sched["ecmp"]["flows"] > 0
    gain = improvement(by_sched["ecmp"]["mean_fct_s"], by_sched["dard"]["mean_fct_s"])
    assert gain > 0.0
    # Stability tightens at scale: with 256 equal-cost paths per pair and
    # light per-host load, 90% of flows never move at all.
    assert by_sched["dard"]["p90_switches"] <= 1
