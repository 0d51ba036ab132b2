"""Property-based tests (hypothesis) for the core data structures and
invariants: prefix subdivision, the addressing/codec/fabric agreement,
max-min allocation laws, and congestion-game convergence (Theorem 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import (
    EncapsulationModule,
    HierarchicalAddressing,
    IdMapper,
    Packet,
    PathCodec,
)
from repro.addressing.prefix import Prefix
from repro.common.errors import AddressingError, RoutingError
from repro.gametheory import CongestionGame, GameFlow, run_best_response_dynamics
from repro.gametheory.theorems import check_theorem1_bound
from repro.simulator.maxmin import (
    link_utilizations,
    maxmin_allocate,
    maxmin_allocate_reference,
)
from repro.switches import SwitchFabric
from repro.topology import FatTree


# ---------------------------------------------------------------------------
# Prefix algebra
# ---------------------------------------------------------------------------

@st.composite
def prefix_and_children(draw):
    base_len = draw(st.integers(min_value=0, max_value=20))
    value = draw(st.integers(min_value=0, max_value=(1 << base_len) - 1 if base_len else 0))
    base = Prefix(value << (32 - base_len) if base_len else 0, base_len)
    child_bits = draw(st.integers(min_value=1, max_value=min(8, 32 - base_len)))
    return base, child_bits


class TestPrefixProperties:
    @given(prefix_and_children())
    @settings(max_examples=200)
    def test_subdivision_children_partition_parent(self, case):
        base, child_bits = case
        children = [base.subdivide(i, child_bits) for i in range(1 << child_bits)]
        # Children are pairwise disjoint and all inside the parent.
        for i, a in enumerate(children):
            assert base.contains_prefix(a)
            for b in children[i + 1:]:
                assert not a.overlaps(b)
        # Spans sum exactly to the parent's span.
        parent_span = 1 << (32 - base.length)
        child_span = 1 << (32 - base.length - child_bits)
        assert child_span * len(children) == parent_span

    @given(prefix_and_children(), st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200)
    def test_address_in_exactly_one_child(self, case, addr):
        base, child_bits = case
        if not base.contains_address(addr):
            return
        children = [base.subdivide(i, child_bits) for i in range(1 << child_bits)]
        assert sum(child.contains_address(addr) for child in children) == 1


# ---------------------------------------------------------------------------
# Addressing / codec / fabric agreement on random host pairs and paths
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stack():
    topo = FatTree(p=4)
    addressing = HierarchicalAddressing(topo)
    return topo, addressing, PathCodec(addressing), SwitchFabric(addressing)


class TestCodecFabricAgreement:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_forward_agree(self, stack, data):
        topo, addressing, codec, fabric = stack
        hosts = sorted(topo.hosts())
        src = data.draw(st.sampled_from(hosts))
        dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
        paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
        path = data.draw(st.sampled_from(paths))
        src_addr, dst_addr = codec.encode(src, dst, path)
        # The codec's logical decode and the fabric's hop-by-hop forwarding
        # must agree exactly.
        assert codec.decode(src_addr, dst_addr) == path
        assert fabric.forward_trace(src, src_addr, dst_addr) == (src,) + path + (dst,)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_owner_round_trip(self, stack, data):
        topo, addressing, codec, fabric = stack
        host = data.draw(st.sampled_from(sorted(topo.hosts())))
        chain = data.draw(st.sampled_from(sorted(addressing.addresses_of(host))))
        addr = addressing.address_of(host, chain)
        assert addressing.owner_of(addr) == (host, chain)


# ---------------------------------------------------------------------------
# Encapsulation roundtrip under adversarial addresses
# ---------------------------------------------------------------------------

class TestEncapsulationProperties:
    @given(data=st.data(), payload=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_wrap_forward_unwrap_roundtrip(self, stack, data, payload):
        """Any (src, dst, path, payload): encapsulate -> fabric-forward ->
        decapsulate returns the exact inner packet."""
        topo, addressing, codec, fabric = stack
        mapper = IdMapper(topo.hosts())
        hosts = sorted(topo.hosts())
        src = data.draw(st.sampled_from(hosts))
        dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
        path = data.draw(
            st.sampled_from(topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst)))
        )
        tx = EncapsulationModule(src, codec, mapper)
        rx = EncapsulationModule(dst, codec, mapper)
        tx.set_path(dst, path)
        packet = Packet(
            src_id=mapper.id_of(src), dst_id=mapper.id_of(dst), payload=payload
        )
        wrapped = tx.encapsulate(packet)
        trace = fabric.forward_trace(src, wrapped.outer_src, wrapped.outer_dst)
        assert trace == (src,) + path + (dst,)
        assert rx.decapsulate(wrapped) == packet

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_misdelivery_always_detected(self, stack, data):
        """A wrapped packet handed to any host other than its destination
        must be rejected, never silently unwrapped."""
        topo, addressing, codec, fabric = stack
        mapper = IdMapper(topo.hosts())
        hosts = sorted(topo.hosts())
        src = data.draw(st.sampled_from(hosts))
        dst = data.draw(st.sampled_from([h for h in hosts if h != src]))
        thief = data.draw(st.sampled_from([h for h in hosts if h != dst]))
        path = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))[0]
        tx = EncapsulationModule(src, codec, mapper)
        tx.set_path(dst, path)
        wrapped = tx.encapsulate(
            Packet(src_id=mapper.id_of(src), dst_id=mapper.id_of(dst))
        )
        with pytest.raises(RoutingError):
            EncapsulationModule(thief, codec, mapper).decapsulate(wrapped)

    @given(addr=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_addresses_never_misattributed(self, stack, addr):
        """owner_of on an arbitrary 32-bit address either resolves to a
        host that really owns it (round-trips) or raises AddressingError —
        it never fabricates an owner."""
        topo, addressing, codec, fabric = stack
        try:
            host, chain = addressing.owner_of(addr)
        except AddressingError:
            return
        assert addressing.address_of(host, chain) == addr

    @given(data=st.data(), addr=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=100, deadline=None)
    def test_fabric_never_loops_on_adversarial_headers(self, stack, data, addr):
        """Injecting an arbitrary destination address at any host either
        traces to a real node or raises cleanly — no infinite forwarding."""
        topo, addressing, codec, fabric = stack
        src = data.draw(st.sampled_from(sorted(topo.hosts())))
        src_addr = sorted(addressing.addresses_of(src))[0]
        try:
            trace = fabric.forward_trace(
                src, addressing.address_of(src, src_addr), addr
            )
        except (AddressingError, RoutingError):
            return
        assert len(trace) <= len(topo.nodes) + 1


# ---------------------------------------------------------------------------
# Indexed-vs-reference allocator on degraded networks
# ---------------------------------------------------------------------------

@st.composite
def degraded_network_case(draw):
    """A fluid network plus a degradation schedule: flows to start, links
    to fail, links to restore — the states where the indexed fast path's
    caches are most likely to go stale."""
    pair_count = draw(st.integers(min_value=1, max_value=6))
    fail_count = draw(st.integers(min_value=0, max_value=3))
    restore_count = draw(st.integers(min_value=0, max_value=fail_count))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return pair_count, fail_count, restore_count, seed


class TestAllocatorOnDegradedNetworks:
    @given(degraded_network_case())
    @settings(max_examples=25, deadline=None)
    def test_live_rates_match_reference_after_failures(self, case):
        from repro.common.units import MBPS
        from repro.simulator.network import Network
        from repro.validation import check_network_against_reference

        pair_count, fail_count, restore_count, seed = case
        rng = np.random.default_rng(seed)
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        topo = net.topology
        hosts = sorted(topo.hosts())
        for _ in range(pair_count):
            src, dst = (hosts[i] for i in rng.choice(len(hosts), 2, replace=False))
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            index = int(rng.integers(len(paths)))
            net.start_flow(src, dst, 64e6, [net.component(src, dst, paths, index)])
        cables = sorted(
            {(u, v) for u, v in net.capacities if (v, u) >= (u, v)}
        )
        switch_cables = [
            (u, v) for u, v in cables
            if topo.node(u).kind.is_switch and topo.node(v).kind.is_switch
        ]
        failed = []
        for _ in range(fail_count):
            u, v = switch_cables[int(rng.integers(len(switch_cables)))]
            if net.link_is_up(u, v):
                net.fail_link(u, v)
                failed.append((u, v))
        for u, v in failed[:restore_count]:
            net.restore_link(u, v)
        net.engine.run_until(net.engine.now + 0.001)  # settle the realloc
        net.check_invariants()
        check_network_against_reference(net)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_zero_capacity_links_rejected_identically(self, seed):
        """A zero-capacity link in use must fail the same way through both
        implementations, never diverge silently."""
        from repro.common.errors import SimulationError
        import random as stdlib_random
        from repro.validation.oracles import random_allocation_case

        demands, capacities = random_allocation_case(stdlib_random.Random(seed))
        dead = demands[0][0][0]
        capacities = dict(capacities)
        capacities[dead] = 0.0
        with pytest.raises(SimulationError):
            maxmin_allocate(demands, capacities)
        with pytest.raises(SimulationError):
            maxmin_allocate_reference(demands, capacities)

    def test_empty_demands_agree(self):
        assert maxmin_allocate([], {("a", "b"): 1.0}) == []
        assert maxmin_allocate_reference([], {("a", "b"): 1.0}) == []


# ---------------------------------------------------------------------------
# Max-min allocation laws on random instances
# ---------------------------------------------------------------------------

@st.composite
def random_allocation_instance(draw):
    num_links = draw(st.integers(min_value=1, max_value=8))
    links = [f"l{i}" for i in range(num_links)]
    capacities = {
        link: draw(st.floats(min_value=1.0, max_value=1000.0)) for link in links
    }
    num_flows = draw(st.integers(min_value=1, max_value=12))
    demands = []
    for _ in range(num_flows):
        route_len = draw(st.integers(min_value=1, max_value=num_links))
        route = tuple(draw(st.permutations(links))[:route_len])
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        demands.append((route, weight))
    return demands, capacities


class TestMaxMinProperties:
    @given(random_allocation_instance())
    @settings(max_examples=200, deadline=None)
    def test_feasible_positive_and_bottlenecked(self, instance):
        demands, capacities = instance
        rates = maxmin_allocate(demands, capacities)
        utils = link_utilizations(demands, rates, capacities)
        # Feasibility: no link over capacity.
        assert all(u <= 1.0 + 1e-6 for u in utils.values())
        # Positivity: everyone gets something.
        assert all(r > 0 for r in rates)
        # Max-min: every flow is bottlenecked on some saturated link.
        for (route, _), rate in zip(demands, rates):
            assert any(utils[link] >= 1.0 - 1e-6 for link in route)

    @given(random_allocation_instance())
    @settings(max_examples=100, deadline=None)
    def test_theorem1_bound_on_random_instances(self, instance):
        """Theorem 1 (Appendix A) checked on arbitrary unweighted networks:
        min flow rate >= min BoNF under max-min fairness."""
        demands, capacities = instance
        unweighted = [(route, 1.0) for route, _ in demands]
        assert check_theorem1_bound(unweighted, capacities).holds

    @given(random_allocation_instance())
    @settings(max_examples=50, deadline=None)
    def test_allocation_deterministic(self, instance):
        demands, capacities = instance
        assert maxmin_allocate(demands, capacities) == maxmin_allocate(
            demands, capacities
        )


# ---------------------------------------------------------------------------
# Congestion game convergence (Theorem 2) on random games
# ---------------------------------------------------------------------------

@st.composite
def random_game(draw):
    num_links = draw(st.integers(min_value=2, max_value=6))
    links = [f"l{i}" for i in range(num_links)]
    capacities = {link: float(draw(st.integers(min_value=1, max_value=20))) for link in links}
    num_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for fid in range(num_flows):
        num_routes = draw(st.integers(min_value=1, max_value=4))
        routes = []
        for _ in range(num_routes):
            length = draw(st.integers(min_value=1, max_value=min(3, num_links)))
            routes.append(tuple(draw(st.permutations(links))[:length]))
        flows.append(GameFlow(fid, tuple(routes)))
    delta = draw(st.floats(min_value=0.05, max_value=2.0))
    return CongestionGame(capacities, flows, delta)


class TestGameProperties:
    @given(random_game())
    @settings(max_examples=100, deadline=None)
    def test_dynamics_converge_to_nash(self, game):
        """Theorem 2: asynchronous selfish moves terminate at a Nash
        equilibrium in finitely many steps, on arbitrary games."""
        result = run_best_response_dynamics(game, max_steps=5000)
        assert result.converged
        assert game.is_nash(result.final)

    @given(random_game())
    @settings(max_examples=100, deadline=None)
    def test_every_move_improves_the_mover(self, game):
        result = run_best_response_dynamics(game, max_steps=5000)
        for step in result.steps:
            assert step.bonf_after - step.bonf_before > game.delta_bps - 1e-9

    @given(random_game(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_convergence_independent_of_move_order(self, game, seed):
        rng = np.random.default_rng(seed)
        result = run_best_response_dynamics(game, rng=rng, max_steps=5000)
        assert result.converged
        assert game.is_nash(result.final)
