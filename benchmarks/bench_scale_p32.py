"""Scale check: p=32 fat-tree (8192 hosts), past the paper's largest size.

The control plane (per-pair monitor caches + matrix Algorithm 1 +
integer-indexed flow vectors) is what makes four-digit daemon fleets
tractable; this bench pushes to 8192 hosts and checks the paper's story
survives: DARD still beats ECMP under stride and the per-flow stability
bound tightens (p90 path switches <= 1 at this scale's light per-host
load).

Every knob is env-overridable for CI's short budget:
``BENCH_SCALE_P32_DURATION`` (default 25 sim-s), ``BENCH_SCALE_P32_RATE``
(arrivals/host/s) and ``BENCH_SCALE_P32_DRAIN`` (post-arrival drain cap).
The DARD-vs-ECMP gain gate, the stability gate and the
:data:`PEAK_RSS_CEILING_MB` memory gate hold at any budget. Raw rows,
each with the scheduler's wall time, the process's peak RSS and the
run's provenance land in ``benchmarks/results/BENCH_scale_p32.json``; a
run off the default budget writes ``BENCH_scale_p32.smoke.json`` and
``scale_p32.smoke.txt`` instead, so it never overwrites the committed
full-budget result (see ``scale.py``).
"""

from repro.experiments import improvement
from repro.experiments.figures import ExperimentOutput
from scale import run_pair, scale_budget, write_artifact

BUDGET = scale_budget("scale_p32", duration=25.0, rate=0.012, drain=600.0)

#: 25% above the full-budget run's peak RSS, 115.9 MB (EXPERIMENTS.md).
PEAK_RSS_CEILING_MB = 145.0


def _run_pair():
    params = BUDGET.params
    rows = run_pair(
        32,
        arrival_rate_per_host=params["rate"],
        duration_s=params["duration"],
        drain_limit_s=params["drain"],
    )
    peak_rss_mb = write_artifact(BUDGET, rows)
    ecmp, dard = rows
    output = ExperimentOutput(
        BUDGET.name,
        "p=32 fat-tree (8192 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp['mean_fct_s'], dard['mean_fct_s']):.1%}, "
        f"duration {params['duration']:.0f}s, rate {params['rate']}/host/s, "
        f"peak RSS {peak_rss_mb:.0f} MB",
    )
    return output, peak_rss_mb


def test_scale_p32(benchmark, save_output):
    output, peak_rss_mb = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    save_output(output)
    assert peak_rss_mb < PEAK_RSS_CEILING_MB, f"peak RSS {peak_rss_mb:.0f} MB"
    by_sched = {row["scheduler"]: row for row in output.rows}
    assert by_sched["ecmp"]["flows"] > 0
    gain = improvement(by_sched["ecmp"]["mean_fct_s"], by_sched["dard"]["mean_fct_s"])
    assert gain > 0.0
    # Stability tightens at scale: with 256 equal-cost paths per pair and
    # light per-host load, 90% of flows never move at all.
    assert by_sched["dard"]["p90_switches"] <= 1
