"""Seeded randomized equivalence: indexed allocator vs string-keyed oracle.

The integer-indexed fast path (``maxmin_allocate_indexed`` fed the
network's link-id rows) must produce the same rates as the preserved pre-index
implementation (``maxmin_allocate_reference``) across random topologies,
weights, and failure sets. "Same" means within 1e-9 relative tolerance —
the two paths may pick saturated bottlenecks in a different order when
shares tie exactly, which perturbs nothing beyond floating-point ulps.

The indexed allocator's two start regimes (the lazy heap from round 0
and vectorized rounds first) are held to a stricter bar: bit-identical
rates, iteration counts and link loads on the same rows, with the loads
equal to an independent recount. So is partition invariance: filling
components in separate calls reproduces one combined fill bit for bit,
even when symmetric shares tie exactly across components.
"""

import math
import random

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.simulator.maxmin import (
    _HEAP_START_DEMANDS,
    _array_fill,
    _heap_fill,
    link_loads_indexed,
    maxmin_allocate,
    maxmin_allocate_indexed,
    maxmin_allocate_reference,
)
from repro.topology import FatTree


def assert_rates_equal(actual, expected):
    """Elementwise closeness: 1e-9 relative, 1e-6 absolute (rates ~1e8)."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert math.isclose(a, e, rel_tol=1e-9, abs_tol=1e-6), (a, e)


def random_linkset_case(rng):
    """A random 'topology': arbitrary directed links + arbitrary demands.

    The allocator only sees link sets, so demands need not be contiguous
    paths — sampling random subsets exercises every incidence shape.
    """
    num_links = rng.randint(2, 40)
    links = [(f"n{i}", f"n{i}'") for i in range(num_links)]
    capacities = {link: rng.uniform(10.0, 1000.0) for link in links}
    demands = []
    for _ in range(rng.randint(1, 60)):
        k = rng.randint(1, min(6, num_links))
        route = tuple(rng.sample(links, k))
        weight = rng.uniform(0.1, 5.0)
        demands.append((route, weight))
    return demands, capacities


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_linksets(self, seed):
        rng = random.Random(1000 + seed)
        demands, capacities = random_linkset_case(rng)
        assert_rates_equal(
            maxmin_allocate(demands, capacities),
            maxmin_allocate_reference(demands, capacities),
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_fattree_paths_with_failures(self, seed):
        """Fat-tree equal-cost paths, random weights, random failure sets."""
        rng = random.Random(2000 + seed)
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        hosts = sorted(topo.hosts())
        all_links = [(link.u, link.v) for link in topo.links()]
        capacities = {}
        for u, v in all_links:
            capacities[(u, v)] = topo.link(u, v).bandwidth_bps
            capacities[(v, u)] = topo.link(u, v).bandwidth_bps
        failed = set()
        for u, v in rng.sample(all_links, rng.randint(0, 3)):
            failed.add((u, v))
            failed.add((v, u))
        demands = []
        while len(demands) < 40:
            src, dst = rng.sample(hosts, 2)
            paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
            path = topo.host_path(src, dst, rng.choice(paths))
            route = tuple(zip(path, path[1:]))
            if any(link in failed for link in route):
                continue  # what the network's reallocator skips
            demands.append((route, rng.uniform(0.5, 3.0)))
        assert_rates_equal(
            maxmin_allocate(demands, capacities),
            maxmin_allocate_reference(demands, capacities),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_live_network_matches_oracle(self, seed):
        """End to end: drive a network through random starts/reroutes/failures
        and check the rates it settled on against the oracle computed from
        its own current flow state."""
        rng = random.Random(3000 + seed)
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        net = Network(topo)
        hosts = sorted(topo.hosts())
        cables = sorted(
            (link.u, link.v)
            for link in topo.links()
            if topo.node(link.u).kind.is_switch and topo.node(link.v).kind.is_switch
        )
        flows = []
        for step in range(30):
            action = rng.random()
            if action < 0.6 or not flows:
                src, dst = rng.sample(hosts, 2)
                paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
                comp = net.component(src, dst, paths, rng.randrange(len(paths)))
                flows.append(net.start_flow(src, dst, rng.uniform(1, 64) * MB, [comp]))
            elif action < 0.8:
                live = [f for f in flows if f.active]
                if live:
                    flow = rng.choice(live)
                    paths = topo.equal_cost_paths(
                        topo.tor_of(flow.src), topo.tor_of(flow.dst)
                    )
                    comp = net.component(
                        flow.src, flow.dst, paths, rng.randrange(len(paths))
                    )
                    net.reroute_flow(flow, [comp])
            elif action < 0.9:
                net.fail_link(*rng.choice(cables))
            else:
                for cable in sorted(net.failed_links):
                    net.restore_link(*cable)
                    break
            net.engine.run_until(net.engine.now + rng.uniform(0.05, 2.0))

            # Oracle: string-keyed allocation over the network's live state.
            demands, owners = [], []
            for flow in net.flows.values():
                for idx, component in enumerate(flow.components):
                    path = topo.host_path_at(flow.src, flow.dst, component.index)
                    links = tuple(zip(path, path[1:]))
                    if net.failed_links and any(link in net.failed_links for link in links):
                        continue
                    demands.append((links, component.weight))
                    owners.append((flow, idx))
            expected = maxmin_allocate_reference(demands, net.capacities)
            actual = [flow.component_rates[idx] for flow, idx in owners]
            assert_rates_equal(actual, expected)
            net.check_invariants()


def random_rows(rng, num_demands, tie_heavy):
    """Random demand rows; ``tie_heavy`` draws from few capacities/weights.

    Few distinct capacities and weights (every weight a small dyadic
    multiple, some != 1) make exact share ties common, the case where
    the two start regimes must agree on whole tie batches.
    """
    num_links = rng.randint(2, 48)
    rows, weights = [], []
    for _ in range(num_demands):
        rows.append(rng.sample(range(num_links), rng.randint(1, min(6, num_links))))
        weights.append(
            rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]) if tie_heavy else rng.uniform(0.1, 5.0)
        )
    if tie_heavy:
        capacities = [rng.choice([50e6, 100e6, 300e6, 1e9]) for _ in range(num_links)]
    else:
        capacities = [rng.uniform(10.0, 1000.0) for _ in range(num_links)]
    return rows, weights, np.asarray(capacities, dtype=float)


def _replicated_rows(components=6, demands_per=9, links_per=3):
    """``components`` identical single-component row sets over disjoint links.

    Identical structure means every component produces the same share
    sequence, so the combined fill is saturated with *exact* cross-
    component ties — the regime where the progressive tail's tie
    handling must stay batch-exact for per-component fills to reproduce it.
    """
    rows, weights = [], []
    for c in range(components):
        base = c * links_per
        for j in range(demands_per):
            rows.append(sorted({base + j % links_per, base + (j + 1) % links_per}))
            weights.append(1.0 + (j % 3))
    capacities = np.full(components * links_per, 100e6)
    component_of = [j // demands_per for j in range(components * demands_per)]
    return rows, weights, capacities, component_of


def _loads_by_link(fill):
    """A fill's loads keyed by global link id (the regimes number links apart)."""
    return dict(zip(np.asarray(fill.links).tolist(), np.asarray(fill.loads).tolist()))


def assert_regimes_agree(rows, weights, capacities):
    """Both start regimes and the entry point agree bit for bit on one fill."""
    heap = _heap_fill(rows, weights, capacities)
    array = _array_fill(rows, weights, capacities)
    assert heap.rates == array.rates
    assert heap.iterations == array.iterations
    assert _loads_by_link(heap) == _loads_by_link(array)
    recount = link_loads_indexed(rows, heap.rates, capacities.size)
    np.testing.assert_array_equal(recount[np.asarray(heap.links)], heap.loads)
    assert np.count_nonzero(recount) <= len(heap.links)
    fill = maxmin_allocate_indexed(rows, weights, capacities)
    assert fill.rates == array.rates
    assert fill.iterations == array.iterations
    assert _loads_by_link(fill) == _loads_by_link(array)


class TestStartRegimes:
    """The round-0 heap entry and the vectorized-first entry agree bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_random_csrs_on_both_sides_of_threshold(self, seed, tie_heavy):
        # Random demand rows on both sides of the start-regime threshold.
        rng = random.Random(4000 + seed)
        for num_demands in (
            1,
            rng.randint(2, _HEAP_START_DEMANDS - 1),
            _HEAP_START_DEMANDS,
            rng.randint(_HEAP_START_DEMANDS + 1, 3 * _HEAP_START_DEMANDS),
        ):
            assert_regimes_agree(*random_rows(rng, num_demands, tie_heavy))

    @pytest.mark.parametrize("components", [1, 3, 8])
    def test_symmetric_components_tie_exactly(self, components):
        # Identical components over disjoint links: every share ties
        # across components, and weights 1/2/3 tie within them.
        assert_regimes_agree(*_replicated_rows(components=components)[:3])

    def test_empty_fill(self):
        fill = maxmin_allocate_indexed([], [], np.ones(4))
        assert (fill.rates, fill.iterations, list(fill.links), list(fill.loads)) == (
            [], 0, [], []
        )


class TestPartitionInvariance:
    """Separate per-group fills reproduce the combined fill bit for bit."""

    @pytest.mark.parametrize("groups", [2, 3, 4, 7])
    def test_symmetric_tie_batches(self, groups):
        rows, weights, capacities, component_of = _replicated_rows()
        combined = maxmin_allocate_indexed(rows, weights, capacities)
        rates = [None] * len(rows)
        loads = {}
        for g in range(groups):
            # Whole components per group, demands in their global order,
            # over the global capacity array, as the dirty refill does.
            js = [j for j, c in enumerate(component_of) if c % groups == g]
            if not js:
                continue
            fill = maxmin_allocate_indexed(
                [rows[j] for j in js], [weights[j] for j in js], capacities
            )
            for j, rate in zip(js, fill.rates):
                rates[j] = rate
            loads.update(_loads_by_link(fill))
        assert rates == combined.rates
        assert loads == _loads_by_link(combined)
