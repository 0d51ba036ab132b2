"""Seeded randomized equivalence: indexed allocator vs string-keyed oracle.

The integer-indexed fast path (``maxmin_allocate_indexed`` + the network's
CSR reallocation) must produce the same rates as the preserved pre-index
implementation (``maxmin_allocate_reference``) across random topologies,
weights, and failure sets. "Same" means within 1e-9 relative tolerance —
the two paths may pick saturated bottlenecks in a different order when
shares tie exactly, which perturbs nothing beyond floating-point ulps.

The indexed allocator's two start regimes (the lazy heap from round 0
and vectorized rounds first) are held to a stricter bar: bit-identical
rates and iteration counts on the same CSR. So is partition invariance:
filling components in separate calls reproduces one combined fill bit
for bit, even when symmetric shares tie exactly across components.
"""

import math
import random

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.simulator import FlowComponent, Network
from repro.simulator.maxmin import (
    _HEAP_START_DEMANDS,
    _heap_fill,
    _vectorized_fill,
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
        all_links = [(l.u, l.v) for l in topo.links()]
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
            (l.u, l.v)
            for l in topo.links()
            if topo.node(l.u).kind.is_switch and topo.node(l.v).kind.is_switch
        )
        flows = []
        for step in range(30):
            action = rng.random()
            if action < 0.6 or not flows:
                src, dst = rng.sample(hosts, 2)
                paths = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))
                comp = FlowComponent(topo.host_path(src, dst, rng.choice(paths)))
                flows.append(net.start_flow(src, dst, rng.uniform(1, 64) * MB, [comp]))
            elif action < 0.8:
                live = [f for f in flows if f.active]
                if live:
                    flow = rng.choice(live)
                    paths = topo.equal_cost_paths(
                        topo.tor_of(flow.src), topo.tor_of(flow.dst)
                    )
                    comp = FlowComponent(
                        topo.host_path(flow.src, flow.dst, rng.choice(paths))
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
                    links = component.links()
                    if net.failed_links and any(l in net.failed_links for l in links):
                        continue
                    demands.append((links, component.weight))
                    owners.append((flow, idx))
            expected = maxmin_allocate_reference(demands, net.capacities)
            actual = [flow.component_rates[idx] for flow, idx in owners]
            assert_rates_equal(actual, expected)
            net.check_invariants()


def random_csr(rng, num_demands, tie_heavy):
    """A random demand CSR; ``tie_heavy`` draws from few capacities/weights.

    Few distinct capacities and weights (every weight a small dyadic
    multiple, some != 1) make exact share ties common, the case where
    the two start regimes must agree on whole tie batches.
    """
    num_links = rng.randint(2, 48)
    indices, indptr, weights = [], [0], []
    for _ in range(num_demands):
        links = rng.sample(range(num_links), rng.randint(1, min(6, num_links)))
        indices.extend(links)
        indptr.append(len(indices))
        weights.append(
            rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]) if tie_heavy else rng.uniform(0.1, 5.0)
        )
    if tie_heavy:
        capacities = [rng.choice([50e6, 100e6, 300e6, 1e9]) for _ in range(num_links)]
    else:
        capacities = [rng.uniform(10.0, 1000.0) for _ in range(num_links)]
    return (
        np.asarray(indices, dtype=np.intp),
        np.asarray(indptr, dtype=np.intp),
        np.asarray(weights, dtype=float),
        np.asarray(capacities, dtype=float),
    )


def _replicated_csr(components=6, demands_per=9, links_per=3):
    """``components`` identical single-component CSRs over disjoint links.

    Identical structure means every component produces the same share
    sequence, so the combined fill is saturated with *exact* cross-
    component ties — the regime where the progressive tail's tie
    handling must stay batch-exact for per-component fills to reproduce it.
    """
    indices, indptr, weights = [], [0], []
    for c in range(components):
        base = c * links_per
        for j in range(demands_per):
            links = sorted({base + j % links_per, base + (j + 1) % links_per})
            indices.extend(links)
            indptr.append(indptr[-1] + len(links))
            weights.append(1.0 + (j % 3))
    capacities = np.full(components * links_per, 100e6)
    component_of = [j // demands_per for j in range(components * demands_per)]
    return (
        np.asarray(indices, dtype=np.intp),
        np.asarray(indptr, dtype=np.intp),
        np.asarray(weights, dtype=np.float64),
        capacities,
        component_of,
    )


class TestStartRegimes:
    """The round-0 heap entry and the vectorized-first entry agree bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_random_csrs_on_both_sides_of_threshold(self, seed, tie_heavy):
        rng = random.Random(4000 + seed)
        for num_demands in (
            1,
            rng.randint(2, _HEAP_START_DEMANDS - 1),
            _HEAP_START_DEMANDS,
            rng.randint(_HEAP_START_DEMANDS + 1, 3 * _HEAP_START_DEMANDS),
        ):
            csr = random_csr(rng, num_demands, tie_heavy)
            heap_rates, heap_iterations = _heap_fill(*csr)
            vector_rates, vector_iterations = _vectorized_fill(*csr)
            np.testing.assert_array_equal(heap_rates, vector_rates)
            assert heap_iterations == vector_iterations
            rates, iterations = maxmin_allocate_indexed(*csr)
            np.testing.assert_array_equal(rates, vector_rates)
            assert iterations == vector_iterations

    @pytest.mark.parametrize("components", [1, 3, 8])
    def test_symmetric_components_tie_exactly(self, components):
        # Identical components over disjoint links: every share ties
        # across components, and weights 1/2/3 tie within them.
        csr = _replicated_csr(components=components)[:4]
        heap_rates, heap_iterations = _heap_fill(*csr)
        vector_rates, vector_iterations = _vectorized_fill(*csr)
        np.testing.assert_array_equal(heap_rates, vector_rates)
        assert heap_iterations == vector_iterations


class TestPartitionInvariance:
    """Separate per-group fills reproduce the combined fill bit for bit."""

    @pytest.mark.parametrize("groups", [2, 3, 4, 7])
    def test_symmetric_tie_batches(self, groups):
        indices, indptr, weights, capacities, component_of = _replicated_csr()
        combined, _ = maxmin_allocate_indexed(indices, indptr, weights, capacities)
        rates = np.zeros(indptr.size - 1)
        for g in range(groups):
            # Whole components per group, demands in their global order.
            js = np.array(
                [j for j, c in enumerate(component_of) if c % groups == g], dtype=np.intp
            )
            if js.size == 0:
                continue
            ids = [indices[indptr[j] : indptr[j + 1]] for j in js.tolist()]
            sub_indptr = np.zeros(js.size + 1, dtype=np.intp)
            np.cumsum([chunk.size for chunk in ids], out=sub_indptr[1:])
            # Compact to the group's own links, as the dirty refill does.
            flat = np.concatenate(ids)
            touched = np.unique(flat)
            group_rates, _ = maxmin_allocate_indexed(
                np.searchsorted(touched, flat), sub_indptr, weights[js], capacities[touched]
            )
            rates[js] = group_rates
        np.testing.assert_array_equal(rates, combined)
