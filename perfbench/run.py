"""Scenario benchmark: how long one ``run_scenario`` takes, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fabric-p32 --seed 1 --seconds 60 --trace 0

Repeats the workload's scenario, each time in a fresh interpreter
(``scenario.py``), until ``--seconds`` would be exceeded, and reports the
median of each metric over the repetitions. ``--trace 0`` reports the
end-to-end metrics measured with tracing off; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.
Every repetition checks the simulated output, and all repetitions of a
run must produce the same records digest. The last line of standard
output is the JSON result; the same result, with its provenance, is
written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The whole command must finish within 180 s; keep clear of it.
HARD_LIMIT_S = 165.0


def metric_units(kind: str) -> dict:
    """``{name: unit}`` for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(args, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "scenario.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--trace"] if traced else []
    cmd += ["--smoke"] if args.smoke else []
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"repetition exited {proc.returncode} without a result")
    rep = json.loads(lines[-1])
    if proc.returncode != 0 and not rep["errors"]:
        rep["errors"] = [f"repetition exited {proc.returncode}"]
    return rep


def median_of(reps: list, key) -> float:
    return statistics.median(key(rep) for rep in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="p=4 smoke size, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    end_to_end = metric_units("end_to_end")

    provenance = {
        "commit": commit(),
        "cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }
    kinds = [False, True] if args.trace else [False]
    reps: list = []
    started = perf_counter()
    longest = 0.0
    while True:
        elapsed = perf_counter() - started
        if len(reps) >= len(kinds) and (
            elapsed + longest > min(args.seconds, HARD_LIMIT_S)
        ):
            break
        rep_started = perf_counter()
        rep = run_rep(args, kinds[len(reps) % len(kinds)], HARD_LIMIT_S - elapsed)
        longest = max(longest, perf_counter() - rep_started)
        reps.append(rep)
        print(
            f"rep {len(reps)}{' traced' if rep['traced'] else ''}: "
            + " ".join(f"{name}={rep[name]:.4f}" for name in end_to_end)
            + f" unfinished={rep['unfinished_flows']}/{rep['flows_generated']}"
            + f" digest={rep['digest'][:16]}"
        )
        for error in rep["errors"]:
            print(f"rep {len(reps)} check failed: {error}")

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    digests = sorted({rep["digest"] for rep in reps})
    errors = [error for rep in reps for error in rep["errors"]]
    if len(digests) != 1:
        errors.append(f"repetitions of one seed disagree: digests {digests}")
    if args.trace:
        units = metric_units("per_layer")
        metrics = {
            name: median_of(traced, lambda rep, n=name: rep["layers"][n])
            for name in units if name != "trace_overhead_s"
        }
        metrics["trace_overhead_s"] = median_of(traced, lambda r: r["wall_s"]) - (
            median_of(plain, lambda r: r["wall_s"])
        )
    else:
        units = end_to_end
        metrics = {name: median_of(plain, lambda r, n=name: r[n]) for name in units}
    first = reps[0]
    provenance.update(numpy=first["numpy"], params=first["params"])
    summary = {
        "correct": not errors,
        "attempted": sum(rep["flows_generated"] for rep in reps),
        "failed": sum(rep["unfinished_flows"] for rep in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print(f"\n{args.workload} seed {args.seed}: {len(plain)} untraced"
          f" and {len(traced)} traced repetitions, medians")
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.6f} {units[name]}")
    print(f"  unfinished_flows {first['unfinished_flows']} of flows_generated"
          f" {first['flows_generated']} per repetition")
    print(f"  simulated: mean_fct_s {first['mean_fct_s']!r} shifts {first['shifts']}")
    print(f"  digest {first['digest']}")
    for error in errors:
        print(f"  FAILED: {error}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": summary, "reps": reps},
                   indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
