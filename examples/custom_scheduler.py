#!/usr/bin/env python
"""Extending the library: write and evaluate your own scheduler.

The whole evaluation stack — workloads, metrics, paired comparison,
failure injection — works with any :class:`repro.scheduling.Scheduler`
subclass. This example implements **Least-Loaded Placement**: each new
flow is placed on the equal-cost path whose bottleneck currently carries
the fewest flows (a greedy, placement-only policy: no rerouting, no
probes, no control traffic), then races it against ECMP and DARD.

The comparison is instructive in both directions: the greedy placer can
even beat DARD at this scale because the simulator hands it *instant,
free* global link state at every admission — exactly the information
that is expensive to get in a real fabric (it is what Hedera's reports
and DARD's probes approximate, with latency). DARD only reacts after the
10 s elephant detection delay, yet needs nothing but its own probes.
Deploy cost, not simulation FCT, is where these policies really differ —
the kind of trade-off this harness lets you quantify before building
anything.

Run:  python examples/custom_scheduler.py
"""

from typing import List

import numpy as np

from repro.addressing import HierarchicalAddressing, PathCodec
from repro.common.units import MB, MBPS
from repro.experiments.report import render_table
from repro.scheduling import Scheduler, SchedulerContext
from repro.simulator import FlowComponent, Network
from repro.topology import FatTree
from repro.workloads import ArrivalProcess, StridePattern, WorkloadSpec


class LeastLoadedScheduler(Scheduler):
    """Greedy placement on the path with the fewest flows at admission.

    A real implementation would query switch counters like DARD's
    monitors do; inside the simulator the network's link state *is* that
    counter interface.
    """

    name = "least-loaded"

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        network = self.ctx.network
        paths, alive = self.alive_paths(src, dst)
        best_index = None
        best_key = None
        for index in alive:
            full = self.ctx.topology.host_path(src, dst, paths[index])
            loads = [
                network.link_state(u, v).total_flows
                for u, v in zip(full, full[1:])
            ]
            key = (max(loads), sum(loads))  # bottleneck first, ties by total
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return [network.component(src, dst, paths, best_index)]


def run_one(scheduler_cls_or_name, seed=21):
    from repro.experiments.runner import make_scheduler

    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    network = Network(topo)
    if isinstance(scheduler_cls_or_name, str):
        scheduler = make_scheduler(scheduler_cls_or_name)
    else:
        scheduler = scheduler_cls_or_name()
    scheduler.attach(
        SchedulerContext(
            network=network,
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )
    )
    process = ArrivalProcess(
        engine=network.engine,
        pattern=StridePattern(topo),
        spec=WorkloadSpec(arrival_rate_per_host=0.08, duration_s=90.0,
                          flow_size_bytes=128 * MB),
        sink=scheduler.place,
        rng=np.random.default_rng(seed),
    )
    process.start()
    network.engine.run_until(90.0)
    while network.flows and network.engine.now < 600.0:
        network.engine.run_until(network.engine.now + 5.0)
    fcts = [r.fct for r in network.records]
    return sum(fcts) / len(fcts), len(fcts)


def main() -> None:
    rows = []
    for contender in ["ecmp", LeastLoadedScheduler, "dard"]:
        name = contender if isinstance(contender, str) else contender.name
        mean_fct, flows = run_one(contender)
        rows.append({"scheduler": name, "flows": flows, "mean_fct_s": mean_fct})
        print(f"  {name:13s} mean FCT {mean_fct:6.2f}s")
    print()
    print(render_table(rows))
    ecmp = rows[0]["mean_fct_s"]
    print("\nvs ECMP: " + ", ".join(
        f"{row['scheduler']} {1 - row['mean_fct_s'] / ecmp:+.1%}" for row in rows[1:]
    ))


if __name__ == "__main__":
    main()
