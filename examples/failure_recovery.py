#!/usr/bin/env python
"""Failure injection walk-through: DARD routing around a dead core uplink.

A long elephant runs across pods while we cut the agg->core cable on its
path mid-transfer. The host's monitor sees the dead link as zero BoNF in
the very state it already polls, so the next selfish scheduling round
shifts the flow to a live path — no failure detector, no control-plane
signalling, no table updates.

The example samples the flow's rate over time so the stall-and-recover
profile is visible, then prints the aggregate cost of the outage.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.addressing import HierarchicalAddressing, PathCodec
from repro.analysis import RateSampler
from repro.common.units import MB, MBPS
from repro.core import DardScheduler
from repro.scheduling import SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree


def main() -> None:
    topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
    net = Network(topo)
    scheduler = DardScheduler()
    scheduler.attach(
        SchedulerContext(
            network=net,
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(7),
        )
    )
    sampler = RateSampler(net, interval_s=1.0)

    flow = scheduler.place("h_0_0_0", "h_2_0_0", 800 * MB)  # ~64 s alone
    net.engine.run_until(15.0)  # elephant detected at 10 s, monitor live

    path = topo.host_path_at(flow.src, flow.dst, flow.components[0].index)
    print(f"flow rides   : {' -> '.join(path[1:-1])}")
    print(f"t=15s        : cutting {path[2]} <-> {path[3]}")
    net.fail_link(path[2], path[3])

    net.engine.run_until(60.0)
    path = topo.host_path_at(flow.src, flow.dst, flow.components[0].index)
    print(f"flow now on  : {' -> '.join(path[1:-1])} "
          f"(after {flow.path_switches} path switch)")
    net.engine.run_until_idle(hard_limit=200.0)

    print("\nrate timeline (Mbps):")
    for t, rate in sampler.series_for(flow.flow_id):
        bar = "#" * int(rate / (4 * MBPS))
        print(f"  t={t:5.1f}s {rate / 1e6:6.1f} {bar}")
        if t > 40:
            break

    record = net.records[0] if net.records else None
    if record:
        ideal = 800 * MB * 8 / (100 * MBPS)
        print(f"\ncompleted in {record.fct:.1f}s "
              f"(ideal {ideal:.1f}s; the gap is the stall before the next "
              "scheduling round plus one retransmitted window)")


if __name__ == "__main__":
    main()
