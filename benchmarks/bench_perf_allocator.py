"""Allocator microbenchmark: integer-indexed row allocator vs string-keyed baseline.

Measures steady-state reallocation throughput (demands/sec) at p=4/8/16
fat-tree scale. The baseline is ``maxmin_allocate_reference`` — the
pre-LinkIndex implementation preserved verbatim — fed string-keyed demands,
re-interning links on every call exactly as the old ``Network._reallocate``
did. The fast path is ``maxmin_allocate_indexed`` fed the link-id rows a
network caches per flow, which is what every post-index reallocation pays;
its timed call also returns the links' loads.

Each side's round loop is timed :data:`REPEATS` times, the two sides
interleaved so that drift in machine load reaches both, and every figure
is the median per-call time over the repeats.

Output rows land in ``benchmarks/results/perf_allocator.txt`` and, through
the shared provenance writer (``artifacts.py``), in
``benchmarks/results/BENCH_perf_allocator.json``, so the perf trajectory
is tracked across PRs. The acceptance gate asserts that the median
baseline call takes >= 3x the median indexed call at p=16.
"""

import random
import statistics
import time

import numpy as np

from artifacts import read_budget, write_artifact
from repro.common.units import MBPS
from repro.experiments.figures import ExperimentOutput
from repro.simulator.linkindex import LinkIndex
from repro.simulator.maxmin import (
    maxmin_allocate_indexed,
    maxmin_allocate_reference,
)
from repro.topology import FatTree

#: No knobs: every run is the full budget.
BUDGET = read_budget("perf_allocator")

#: rounds per timed loop, scaled down as the topology grows.
ROUNDS = {4: 30, 8: 10, 16: 4}

#: interleaved timed loops per side; the figures are their medians.
REPEATS = 9

#: demands per host — keeps the demand count proportional to fabric size.
FLOWS_PER_HOST = 2.0


def _build_case(p, seed=7):
    """One reproducible workload: a fat-tree and a batch of path demands."""
    topo = FatTree(p=p, link_bandwidth_bps=100 * MBPS)
    rng = random.Random(seed)
    hosts = sorted(topo.hosts())
    capacities = {}
    for link in topo.links():
        bw = topo.link(link.u, link.v).bandwidth_bps
        capacities[(link.u, link.v)] = bw
        capacities[(link.v, link.u)] = bw
    demands = []
    for _ in range(int(len(hosts) * FLOWS_PER_HOST)):
        src, dst = rng.sample(hosts, 2)
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        path = topo.host_path(src, dst, rng.choice(paths))
        demands.append((tuple(zip(path, path[1:])), 1.0))
    return topo, demands, capacities


def _index_demands(topo, demands):
    """What Network does once per flow: intern each path to a link-id row."""
    index = LinkIndex.from_topology(topo)
    rows = [index.index_links(links).tolist() for links, _ in demands]
    weights = [w for _, w in demands]
    return rows, weights, index.capacities


def _per_call(fn, rounds):
    """Mean seconds per call over one loop of ``rounds`` calls."""
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def _measure(p):
    topo, demands, capacities = _build_case(p)
    rows, weights, caps = _index_demands(topo, demands)

    def baseline():
        return maxmin_allocate_reference(demands, capacities)

    def indexed():
        return maxmin_allocate_indexed(rows, weights, caps)

    # Sanity: both paths agree on the allocation they are being timed on
    # (and each is warmed up: first-touch allocations, caches).
    assert np.allclose(indexed().rates, baseline(), rtol=1e-9, atol=1e-6)
    rounds = ROUNDS[p]
    baseline_calls, indexed_calls = [], []
    for _ in range(REPEATS):
        baseline_calls.append(_per_call(baseline, rounds))
        indexed_calls.append(_per_call(indexed, rounds))
    baseline_call = statistics.median(baseline_calls)
    indexed_call = statistics.median(indexed_calls)
    return {
        "p": p,
        "hosts": len(topo.hosts()),
        "demands": len(demands),
        "rounds": rounds,
        "repeats": REPEATS,
        "baseline_demands_per_s": len(demands) / baseline_call,
        "indexed_demands_per_s": len(demands) / indexed_call,
        "baseline_call_s": baseline_call,
        "indexed_call_s": indexed_call,
        "speedup": baseline_call / indexed_call,
    }


def _run_all():
    rows = [_measure(p) for p in (4, 8, 16)]
    write_artifact(BUDGET, rows)
    return ExperimentOutput(
        BUDGET.name,
        "max-min allocator throughput: indexed row allocator vs string-keyed baseline",
        rows=[
            {
                "p": r["p"],
                "demands": r["demands"],
                "baseline_dem_per_s": round(r["baseline_demands_per_s"]),
                "indexed_dem_per_s": round(r["indexed_demands_per_s"]),
                "speedup": round(r["speedup"], 2),
            }
            for r in rows
        ],
        notes="baseline re-interns (str, str) links per call; indexed reuses "
        f"per-flow link-id rows as Network._reallocate does; medians of {REPEATS} "
        "interleaved loops per side",
    )


def test_perf_allocator(benchmark, save_output):
    output = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    save_output(output)
    by_p = {row["p"]: row for row in output.rows}
    assert by_p[16]["speedup"] >= 3.0, by_p[16]
