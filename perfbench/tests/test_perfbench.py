"""The benchmark's own tests, at smoke size (p=4 fabrics).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import scenario  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _rep(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "scenario.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return _last_json(proc.stdout)


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mice-storm-p16",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    for name, unit in names.items():
        assert f"{name} " in proc.stdout and unit in proc.stdout


def test_digest_depends_on_seed_only():
    first, again, other = (
        _rep("--workload", "mice-storm-p16", "--seed", seed) for seed in ("1", "1", "2")
    )
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert first["errors"] == again["errors"] == other["errors"] == []


def test_short_drain_reports_unfinished_flows(monkeypatch, capsys):
    short = dataclasses.replace(WORKLOADS["elephants-p16"], drain_limit_s=0.5)
    monkeypatch.setitem(WORKLOADS, "elephants-p16", short)
    code = scenario.main(["--workload", "elephants-p16", "--seed", "1", "--smoke"])
    rep = _last_json(capsys.readouterr().out)
    assert code == 0
    assert rep["unfinished_flows"] > 0
    assert rep["flows_generated"] == rep["completed"] + rep["unfinished_flows"]
    assert rep["errors"] == []


def test_traced_seams_agree():
    rep = _rep("--workload", "mice-storm-p16", "--seed", "1", "--trace")
    layers = rep["layers"]
    assert rep["errors"] == []
    assert layers["simulator.fail_restore_calls"] > 0
    assert layers["maxmin.allocate_calls"] > 0
    assert layers["scheduling.place_calls"] == rep["flows_generated"]


def test_seam_mismatch_fails_loudly(monkeypatch, capsys):
    from repro.simulator.network import Network

    perf_stats = Network.perf_stats

    def miscounted(self):
        stats = perf_stats(self)
        stats["flows_started"] += 1
        return stats

    monkeypatch.setattr(Network, "perf_stats", miscounted)
    code = scenario.main(["--workload", "elephants-p16", "--seed", "1", "--smoke", "--trace"])
    out = capsys.readouterr()
    assert code == 1
    assert "seam mismatch: simulator.start_flow_calls" in out.err
    assert _last_json(out.out)["errors"]


def test_tracer_self_times_and_undo():
    class Toy:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    original = Toy.__dict__["outer"]
    with Tracer() as tracer:
        tracer.method(Toy, "outer", "outer")
        tracer.method(Toy, "inner", "inner")
        assert Toy().outer() == 2
    assert Toy.__dict__["outer"] is original
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 2
    outer = layers["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - layers["inner"]["total_s"])
    assert tracer.top_level_s() == pytest.approx(outer["total_s"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric-p32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
