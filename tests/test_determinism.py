"""Determinism regression: one seed, one trace.

The reproduction's pairwise scheduler comparisons and the golden-trace
regression layer both rest on the same guarantee — a scenario is a pure
function of its seed. These tests pin that down hard: two in-process runs
and one fresh-interpreter subprocess run must produce *byte-identical*
FCT traces (full repr precision, not rounded)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.common.units import MB, MBPS
from repro.experiments.runner import ScenarioConfig, run_scenario

SCENARIO = ScenarioConfig(
    topology="fattree",
    topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
    pattern="random",
    scheduler="dard",
    arrival_rate_per_host=0.08,
    duration_s=15.0,
    flow_size_bytes=16 * MB,
    seed=1234,
)


def trace(result):
    """The full-precision per-flow trace, in completion order."""
    return [
        (record.flow_id, repr(record.start_time), repr(record.fct),
         record.path_switches)
        for record in result.records
    ]


# One subprocess-visible program that prints the trace as JSON. It
# rebuilds the exact SCENARIO above from the constants, so the subprocess
# shares no interpreter state with us at all.
_SUBPROCESS_PROGRAM = """
import json
from repro.common.units import MB, MBPS
from repro.experiments.runner import ScenarioConfig, run_scenario

result = run_scenario(ScenarioConfig(
    topology="fattree",
    topology_params={"p": 4, "link_bandwidth_bps": 100 * MBPS},
    pattern="random",
    scheduler="dard",
    arrival_rate_per_host=0.08,
    duration_s=15.0,
    flow_size_bytes=16 * MB,
    seed=1234,
))
print(json.dumps([
    [r.flow_id, repr(r.start_time), repr(r.fct), r.path_switches]
    for r in result.records
]))
"""


class TestDeterminism:
    def test_two_in_process_runs_byte_identical(self):
        first = run_scenario(SCENARIO)
        second = run_scenario(SCENARIO)
        assert first.flows_generated == second.flows_generated
        assert trace(first) == trace(second)
        assert repr(first.control_bytes) == repr(second.control_bytes)
        assert first.dard_shifts == second.dard_shifts

    def test_subprocess_run_byte_identical(self):
        in_process = [list(row) for row in trace(run_scenario(SCENARIO))]
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "0"  # prove we do not depend on it either way
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_PROGRAM],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == in_process

    def test_different_seeds_diverge(self):
        # Sanity check that the byte-identity above is not vacuous.
        import dataclasses

        other = run_scenario(dataclasses.replace(SCENARIO, seed=4321))
        assert trace(other) != trace(run_scenario(SCENARIO))
