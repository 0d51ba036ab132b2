"""Scale check: p=64 fat-tree (65,536 hosts), 8x past the paper's largest.

The columnar FlowStore is what makes five-digit host counts tractable on
the data plane: with tens of thousands of concurrent flows, the per-event
settle/ETA passes are single numpy sweeps over the SoA columns instead of
Python loops over ``flows.values()``. Together with the control plane
(one dense bottleneck poll per monitor + per-monitor Algorithm 1 over
integer flow vectors) this bench pushes to 65,536 hosts and checks the
paper's story survives: DARD still beats ECMP under stride at a scale
three orders of magnitude past the testbed.

Every knob is env-overridable for CI's short budget:
``BENCH_SCALE_P64_DURATION`` (default 10 sim-s), ``BENCH_SCALE_P64_RATE``
(arrivals/host/s) and ``BENCH_SCALE_P64_DRAIN`` (post-arrival drain cap).
Both schedulers must complete flows and report a positive mean FCT at
any budget; the DARD-vs-ECMP improvement is reported in the notes rather
than gated — at short CI budgets the drain cap can truncate either
side's tail. Raw rows, each with the scheduler's wall time, the
process's peak RSS and the run's provenance land in
``benchmarks/results/BENCH_scale_p64.json``; a run off the default
budget writes ``BENCH_scale_p64.smoke.json`` and ``scale_p64.smoke.txt``
instead, so it never overwrites the committed full-budget result (see
``artifacts.py``). The peak RSS must stay under :data:`PEAK_RSS_CEILING_MB`
at any budget, so a memory regression fails the bench instead of
growing quietly.
"""

from repro.experiments import improvement
from repro.experiments.figures import ExperimentOutput
from artifacts import read_budget, run_pair, write_artifact

BUDGET = read_budget("scale_p64", duration=10.0, rate=0.003, drain=300.0)

#: 25% above the full-budget run's peak RSS, 475.5 MB (EXPERIMENTS.md).
PEAK_RSS_CEILING_MB = 594.0


def _run_pair():
    params = BUDGET.params
    rows = run_pair(
        64,
        arrival_rate_per_host=params["rate"],
        duration_s=params["duration"],
        drain_limit_s=params["drain"],
    )
    peak_rss_mb = write_artifact(BUDGET, rows)
    ecmp, dard = rows
    output = ExperimentOutput(
        BUDGET.name,
        "p=64 fat-tree (65,536 hosts), stride: DARD vs ECMP at scale",
        rows=rows,
        notes=f"improvement: {improvement(ecmp['mean_fct_s'], dard['mean_fct_s']):.1%}, "
        f"duration {params['duration']:.0f}s, rate {params['rate']}/host/s, "
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
