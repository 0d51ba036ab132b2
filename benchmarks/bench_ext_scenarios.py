"""Extension: adversarial scenarios — threshold vs predictive detection.

Ablates the elephant detector on the two adversarial scenario classes
from ``repro.workloads.scenarios`` at p=16 (1024 hosts):

* **incast** — many-to-one barrier bursts into a handful of targets;
* **storm** — stride traffic under a rolling failure storm (three
  fail/restore waves over random switch cables).

Each scenario runs DARD twice: with the paper's 10 s age-threshold
detector and with the EWMA predictive classifier
(``Network(elephant_detector="predictive")``). The gate is detection
latency: the predictive detector must promote at least some elephants
*early* (before the age threshold) and its mean promotion age must land
strictly under ``elephant_age_s`` — while generating the byte-identical
workload (same seed, same arrival stream, same flow count).

Knobs are env-overridable for CI's short budget:
``BENCH_EXT_SCENARIOS_P`` (fat-tree p, default 16),
``BENCH_EXT_SCENARIOS_DURATION`` (sim-s of arrivals),
``BENCH_EXT_SCENARIOS_RATE`` (arrivals/host/s) and
``BENCH_EXT_SCENARIOS_DRAIN`` (post-arrival drain cap). The ablation
rows land in ``benchmarks/results/BENCH_ext_scenarios.json``; a run off
the default budget writes ``BENCH_ext_scenarios.smoke.json`` and
``ext_scenarios.smoke.txt`` instead, so it never overwrites the
committed full-budget result.
"""

import json
import os
import pathlib

from repro.common.rng import RngStreams
from repro.common.units import MB, MBPS
from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.figures import ExperimentOutput
from repro.topology import build_topology
from repro.workloads import FailureStormScenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_BUDGET = (16, 12.0, 0.02, 240.0)
P = int(os.environ.get("BENCH_EXT_SCENARIOS_P", FULL_BUDGET[0]))
DURATION_S = float(os.environ.get("BENCH_EXT_SCENARIOS_DURATION", FULL_BUDGET[1]))
RATE = float(os.environ.get("BENCH_EXT_SCENARIOS_RATE", FULL_BUDGET[2]))
DRAIN_S = float(os.environ.get("BENCH_EXT_SCENARIOS_DRAIN", FULL_BUDGET[3]))

#: Runs off the full budget get their own artifact names (module docstring).
EXPERIMENT = (
    "ext_scenarios"
    if (P, DURATION_S, RATE, DRAIN_S) == FULL_BUDGET
    else "ext_scenarios.smoke"
)


def _topology_params():
    return {"p": P, "link_bandwidth_bps": 100 * MBPS}


def _storm_events():
    storm = FailureStormScenario(
        start_s=2.0,
        wave_interval_s=max(1.0, DURATION_S / 4),
        waves=3,
        cables_per_wave=2,
        outage_s=max(1.0, DURATION_S / 5),
    )
    return storm.link_events(
        build_topology("fattree", **_topology_params()),
        RngStreams(17).stream("storm"),
    )


def _scenario_kwargs(kind):
    if kind == "incast":
        return dict(
            pattern="incast",
            pattern_params={"targets": max(1, P // 4)},
            arrival="incast-barrier",
            arrival_params={
                "period_s": max(0.5, DURATION_S / 6),
                "senders_per_burst": P,
            },
            link_events=(),
        )
    return dict(
        pattern="stride",
        arrival="poisson",
        arrival_params={},
        link_events=_storm_events(),
    )


def _run(kind, detector):
    network_box = []
    config = ScenarioConfig(
        topology="fattree",
        topology_params=_topology_params(),
        scheduler="dard",
        arrival_rate_per_host=RATE,
        duration_s=DURATION_S,
        # The paper's elephants: 128 MB is > 10 s serialized even on an
        # uncontended 100 Mbps path, so every flow is a true elephant and
        # detection latency is the only variable.
        flow_size_bytes=128 * MB,
        seed=23,
        drain_limit_s=DRAIN_S,
        network_params=(
            {} if detector == "threshold" else {"elephant_detector": detector}
        ),
        **_scenario_kwargs(kind),
    )
    result = run_scenario(config, instrument=network_box.append)
    network = network_box[0]
    stats = network.perf_stats()
    return {
        "scenario": kind,
        "detector": detector,
        "flows_generated": result.flows_generated,
        "flows": len(result.records),
        # None (JSON null), not NaN, when the short-budget run completes
        # nothing — NaN is not valid JSON and breaks artifact consumers.
        "mean_fct_s": result.mean_fct if result.records else None,
        "peak_elephants": result.peak_elephants,
        "dard_shifts": result.dard_shifts,
        "elephant_age_s": network.elephant_age_s,
        "det_early_promotions": stats.get("det_early_promotions", 0.0),
        "det_fallback_promotions": stats.get("det_fallback_promotions", 0.0),
        "det_mean_detection_age_s": stats.get("det_mean_detection_age_s", 0.0),
    }


def _run_ablation():
    rows = []
    for kind in ("incast", "storm"):
        for detector in ("threshold", "predictive"):
            rows.append(_run(kind, detector))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{EXPERIMENT}.json").write_text(
        json.dumps({"experiment": EXPERIMENT, "rows": rows}, indent=2) + "\n"
    )
    return ExperimentOutput(
        EXPERIMENT,
        f"p={P} incast + failure storm: threshold vs predictive detection",
        rows=rows,
    )


def test_ext_scenarios(benchmark, save_output):
    output = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    save_output(output)
    by_key = {(row["scenario"], row["detector"]): row for row in output.rows}
    for kind in ("incast", "storm"):
        threshold = by_key[(kind, "threshold")]
        predictive = by_key[(kind, "predictive")]
        # Same seed, same arrival stream: detection must not change the
        # generated workload, only how fast elephants are recognized.
        assert predictive["flows_generated"] == threshold["flows_generated"], kind
        # The predictor makes early calls on these heavy flows...
        assert predictive["det_early_promotions"] > 0, kind
        # ...and its mean promotion age beats the age threshold, which by
        # construction cannot promote before elephant_age_s.
        assert (
            predictive["det_mean_detection_age_s"]
            < predictive["elephant_age_s"]
        ), kind
