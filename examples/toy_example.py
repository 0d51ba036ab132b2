#!/usr/bin/env python
"""The paper's Figure 1 / Table 1 toy example, replayed live.

Three elephant flows are forced through the same core switch of a p=4
fat-tree. Each source host then runs DARD's selfish flow scheduling: it
monitors the BoNF (bandwidth over number of elephant flows) of all four
paths to its destination and shifts one flow per round whenever that
raises the minimum BoNF. The example prints each path switch as it
happens and verifies the end state is a Nash equilibrium of the underlying
congestion game (paper Appendix B).

Run:  python examples/toy_example.py
"""

import numpy as np

from repro.addressing import HierarchicalAddressing, PathCodec
from repro.common.units import MB, MBPS
from repro.core import DardScheduler
from repro.gametheory import game_from_network
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
            rng=np.random.default_rng(1),
        )
    )

    def start_on_core0(src, dst):
        """Place a flow on the path through core_0_0 — everyone collides."""
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        via_core0 = next(i for i, p in enumerate(paths) if p[2] == "core_0_0")
        return net.start_flow(src, dst, 2000 * MB, [net.component(src, dst, paths, via_core0)])

    def path_of(flow):
        """The node path a flow rides, built from its path index."""
        return topo.host_path_at(flow.src, flow.dst, flow.components[0].index)

    # Figure 1's three elephants (E11->E21, E13->E24, E32->E23).
    flows = [
        start_on_core0("h_0_0_0", "h_1_0_0"),
        start_on_core0("h_0_1_0", "h_1_1_1"),
        start_on_core0("h_2_0_1", "h_1_1_0"),
    ]

    def bottleneck_report(label):
        state = net.link_state("core_0_0", "agg_1_0")
        rates = [f"{f.rate_bps / 1e6:.0f}" for f in flows]
        print(f"  t={net.engine.now:5.1f}s {label:28s} "
              f"flow rates = {rates} Mbps")

    net.engine.run_until(0.01)  # let the first rate allocation settle
    bottleneck_report("(all forced through core_0_0)")
    print()

    # Watch the shifts happen: sample every 5 simulated seconds.
    last_paths = [path_of(f) for f in flows]
    for t in range(5, 65, 5):
        net.engine.run_until(float(t))
        for i, flow in enumerate(flows):
            current = path_of(flow)
            if current != last_paths[i]:
                print(f"  t={net.engine.now:5.1f}s flow{i} shifted to core "
                      f"{current[3]} (switch #{flow.path_switches})")
                last_paths[i] = current

    print()
    bottleneck_report("(after DARD convergence)")
    cores = {path_of(f)[3] for f in flows}
    print(f"\n  distinct cores in use : {len(cores)} of 3 flows")
    print(f"  total path switches   : {sum(f.path_switches for f in flows)} "
          "(paper Table 1 converges in 2 rounds)")

    game, strategy = game_from_network(net, delta_bps=scheduler.delta_bps)
    print(f"  end state is Nash     : {game.is_nash(strategy)}")
    print(f"  global minimum BoNF   : {game.min_bonf(strategy) / 1e6:.0f} Mbps "
          "(started at 33 Mbps)")


if __name__ == "__main__":
    main()
