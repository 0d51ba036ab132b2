"""One repetition: run one workload's scenario once, check it, print JSON.

Run from the repository root (``run.py`` starts one fresh interpreter
per repetition this way)::

    python3 perfbench/scenario.py --workload elephants-p16 --seed 1 [--trace]

The last line of standard output is one JSON object: the end-to-end
times, peak RSS, flow accounting, the records digest and, with
``--trace``, the per-layer metrics. Exits 1 if an output check or a seam
cross-check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.addressing.codec import PathCodec  # noqa: E402
from repro.addressing.hierarchy import HierarchicalAddressing  # noqa: E402
from repro.core.daemon import HostDaemon  # noqa: E402
from repro.core.registry import MonitorRegistry  # noqa: E402
from repro.core.scheduler import DardScheduler  # noqa: E402
from repro.experiments import run_scenario  # noqa: E402
from repro.simulator.engine import EventEngine  # noqa: E402
from repro.simulator.maxmin import maxmin_allocate_indexed  # noqa: E402
from repro.simulator.network import Network  # noqa: E402
from repro.topology import build_topology  # noqa: E402

from metrics import RUN_LAYERS, SETUP_LAYERS  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import LINK_BPS, WORKLOADS, get_workload, scenario_config  # noqa: E402

RUN_UNTIL = "simulator.run_until"

#: Largest share of the traced wall that may fall outside every span.
MAX_UNATTRIBUTED = 0.05


def install_layers(tracer: Tracer) -> list:
    """Wrap every layer seam; returns the list addressing objects land in."""
    made: list = []
    init = HierarchicalAddressing.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    tracer.patch(HierarchicalAddressing, "__init__", remember)
    if not tracer.function(build_topology, "topology.build"):
        raise SystemExit("seam gone: build_topology is bound in no repro module")
    if not tracer.function(maxmin_allocate_indexed, "maxmin.allocate"):
        raise SystemExit("seam gone: maxmin_allocate_indexed is bound in no repro module")
    tracer.method(HierarchicalAddressing, "__init__", "addressing.alloc")
    tracer.method(PathCodec, "__init__", "addressing.codec")
    tracer.method(Network, "__init__", "simulator.network_init")
    tracer.method(DardScheduler, "attach", "core.attach")
    tracer.method(EventEngine, "run_until", RUN_UNTIL)
    tracer.method(MonitorRegistry, "register", "core.register")
    tracer.method(DardScheduler, "place", "scheduling.place")
    tracer.method(Network, "start_flow", "simulator.start_flow")
    tracer.method(Network, "reroute_flow", "simulator.reroute")
    tracer.method(Network, "fail_link", "simulator.fail_restore")
    tracer.method(Network, "restore_link", "simulator.fail_restore")
    tracer.method(HostDaemon, "query_monitors", "core.query")
    tracer.method(HostDaemon, "run_scheduling_round", "core.round")
    return made


def records_digest(records) -> str:
    """sha256 over the flow records sorted by id, floats at full precision."""
    rows = sorted(
        (
            r.flow_id, r.src, r.dst, r.size_bytes, r.start_time, r.end_time,
            r.path_switches, r.path_revisits, r.retransmitted_bytes, r.was_elephant,
        )
        for r in records
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_output(result, unfinished: int, max_flows: int) -> list:
    """The simulated-output checks; returns one message per failure."""
    errors = []
    if result.flows_generated != max_flows:
        errors.append(f"generated {result.flows_generated} flows, not the budget {max_flows}")
    completed = len(result.records)
    if result.flows_generated != completed + unfinished:
        errors.append(
            f"flows_generated {result.flows_generated} != completed {completed}"
            f" + unfinished {unfinished}"
        )
    for r in result.records:
        # The simulator completes a flow once it is within one byte of done.
        floor = max(0.0, r.size_bytes - 1.0) * 8.0 / LINK_BPS
        if r.fct < floor * (1.0 - 1e-9):
            errors.append(f"flow {r.flow_id}: fct {r.fct!r} below size/link rate {floor!r}")
            break
    return errors


def layer_metrics(tracer: Tracer, made: list, network, result, wall_s: float) -> tuple:
    """The per-layer metrics of one traced run, plus seam cross-check failures."""
    layers = tracer.layers()
    empty = {"total_s": 0.0, "self_s": 0.0, "calls": 0}
    row = lambda layer: layers.get(layer, empty)  # noqa: E731
    stats = network.perf_stats()
    out = {}
    for layer in SETUP_LAYERS:
        out[f"{layer}_s"] = row(layer)["total_s"]
    for layer in RUN_LAYERS:
        out[f"{layer}_s"] = row(layer)["total_s"]
        out[f"{layer}_self_s"] = row(layer)["self_s"]
        out[f"{layer}_calls"] = row(layer)["calls"]
    out["addressing.addresses"] = sum(
        a.num_addresses_per_host(h) for a in made for h in a.topology.hosts()
    )
    out["simulator.events"] = network.engine.events_processed
    out["simulator.realloc_s"] = stats["realloc_time_s"]
    out["simulator.realloc_calls"] = stats["realloc_calls"]
    out["simulator.realloc_full"] = stats["realloc_full"]
    out["simulator.realloc_incremental"] = stats["realloc_incremental"]
    rerated = stats["flows_rerated"] + stats["flows_preserved"]
    out["simulator.rerated_share"] = stats["flows_rerated"] / rerated if rerated else 0.0
    rounds = row("core.round")["calls"]
    out["core.shift_yield"] = result.dard_shifts / rounds if rounds else 0.0
    out["traced_wall_s"] = wall_s
    out["unattributed_s"] = wall_s - tracer.top_level_s()

    errors = []
    seams = [
        ("scheduling.place_calls", out["scheduling.place_calls"], "flows_generated",
         result.flows_generated),
        ("simulator.start_flow_calls", out["simulator.start_flow_calls"], "flows_started",
         stats["flows_started"]),
        ("simulator.reroute_calls", out["simulator.reroute_calls"], "reroutes",
         stats["reroutes"]),
        ("core.query_calls", out["core.query_calls"], "cp_query_rounds",
         stats.get("cp_query_rounds", 0)),
    ]
    for name, wrapped, counter, counted in seams:
        if wrapped != counted:
            errors.append(f"seam mismatch: {name} {wrapped} != {counter} {counted}")
    if stats["realloc_calls"] and not out["maxmin.allocate_calls"]:
        errors.append("seam mismatch: realloc ran but maxmin.allocate_calls is 0")
    if out["unattributed_s"] > MAX_UNATTRIBUTED * wall_s:
        errors.append(
            f"unattributed_s {out['unattributed_s']!r} is over {MAX_UNATTRIBUTED:.0%}"
            f" of traced_wall_s {wall_s!r}: work moved outside the wrapped seams"
        )
    return out, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="p=4 smoke size")
    args = parser.parse_args(argv)

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    workload = get_workload(args.workload, smoke=args.smoke)
    config = scenario_config(workload, args.seed)

    built = []
    with Tracer() as tracer:
        if args.trace:
            made = install_layers(tracer)
        else:
            # Only the split between setup and run: a handful of calls.
            tracer.method(EventEngine, "run_until", RUN_UNTIL)
        started = perf_counter()
        result = run_scenario(config, instrument=built.append)
        wall_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = tracer.first_start(RUN_UNTIL) - started
    network = built[0]

    unfinished = len(network.flows)
    errors = check_output(result, unfinished, workload.max_flows)
    out = {
        "workload": workload.name,
        "params": workload.params(),
        "seed": args.seed,
        "traced": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "run_s": wall_s - setup_s,
        "peak_rss_mb": peak_rss_mb,
        "flows_generated": result.flows_generated,
        "completed": len(result.records),
        "unfinished_flows": unfinished,
        "digest": records_digest(result.records),
        "mean_fct_s": result.mean_fct,
        "shifts": result.dard_shifts,
    }
    if args.trace:
        out["layers"], seam_errors = layer_metrics(tracer, made, network, result, wall_s)
        errors += seam_errors
    out["errors"] = errors
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(out, sort_keys=True))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
