"""Scale check: p=16 fat-tree (1024 hosts), the paper's middle ns-2 size.

The smaller fat-tree benches (p=4/8) carry the per-figure comparisons;
this one demonstrates the stack at four-digit host counts: DARD still
beats ECMP under stride while its per-flow stability bound holds, and the
whole simulation (including 1000+ host daemons polling monitors) completes
in seconds. It always runs its full budget: its gain gate does not hold
on a truncated run. Raw rows, each with the scheduler's wall time, the
process's peak RSS and the run's provenance land in
``benchmarks/results/BENCH_scale_p16.json`` (see ``artifacts.py``). The peak
RSS must stay under :data:`PEAK_RSS_CEILING_MB`, so a memory regression
fails the bench instead of growing quietly.
"""

from repro.experiments import improvement
from repro.experiments.figures import ExperimentOutput
from artifacts import Budget, run_pair, write_artifact

BUDGET = Budget("scale_p16", {"duration": 40.0, "rate": 0.035}, {}, full=True)

#: 25% above the full-budget run's peak RSS, 66.5 MB (EXPERIMENTS.md).
PEAK_RSS_CEILING_MB = 83.0


def _run_pair():
    rows = run_pair(
        16,
        arrival_rate_per_host=BUDGET.params["rate"],
        duration_s=BUDGET.params["duration"],
    )
    peak_rss_mb = write_artifact(BUDGET, rows)
    ecmp, dard = rows
    output = ExperimentOutput(
        BUDGET.name,
        "p=16 fat-tree (1024 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp['mean_fct_s'], dard['mean_fct_s']):.1%}, "
        f"peak RSS {peak_rss_mb:.0f} MB",
    )
    return output, peak_rss_mb


def test_scale_p16(benchmark, save_output):
    output, peak_rss_mb = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    save_output(output)
    assert peak_rss_mb < PEAK_RSS_CEILING_MB, f"peak RSS {peak_rss_mb:.0f} MB"
    by_sched = {row["scheduler"]: row for row in output.rows}
    gain = improvement(by_sched["ecmp"]["mean_fct_s"], by_sched["dard"]["mean_fct_s"])
    assert gain > 0.04
    # Stability holds at scale: 90th percentile of switches stays tiny
    # against the 64 available paths.
    assert by_sched["dard"]["p90_switches"] <= 4
