"""Seeded randomized equivalence: indexed allocator vs string-keyed oracle.

The integer-indexed fast path (``maxmin_allocate_indexed`` fed the
network's link-id rows) must produce the same rates as the preserved pre-index
implementation (``maxmin_allocate_reference``) across random topologies,
weights, and failure sets. "Same" means within 1e-9 relative tolerance —
the two paths may pick saturated bottlenecks in a different order when
shares tie exactly, which perturbs nothing beyond floating-point ulps.

One indexed fill is also held to a stricter bar on its own rows: its
link loads equal an independent recount bit for bit, and every rate is
its weight times the least saturation share on its row. So is
partition invariance: filling components in separate calls reproduces
one combined fill bit for bit, even when symmetric shares tie exactly
across components, and so does filling a random region with every
other demand on its links pinned at its level in the combined fill.
"""

import math
import random

import numpy as np
import pytest

from repro.common.units import MB, MBPS
from repro.simulator import Network
from repro.simulator.maxmin import (
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


#: Fill sizes on both sides of this count once took different code
#: paths (vectorized rounds from here up); the sizes drawn span both.
LARGE_FILL = 64


def random_rows(rng, num_demands, tie_heavy):
    """Random demand rows; ``tie_heavy`` draws from few capacities/weights.

    Few distinct capacities and weights (every weight a small dyadic
    multiple, some != 1) make exact share ties common, the case where
    a round must freeze its whole tie batch at once.
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
    component ties — the case where the fill's tie handling must stay
    batch-exact for per-component fills to reproduce it.
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
    """A fill's loads keyed by global link id."""
    return dict(zip(fill.links, fill.loads))


def _shares_by_link(fill):
    """A fill's saturation shares keyed by global link id."""
    return dict(zip(fill.links, fill.saturation))


def assert_one_fill_holds(rows, weights, capacities):
    """One fill's loads, shares and rates against a recount and the oracle."""
    fill = maxmin_allocate_indexed(rows, weights, capacities)
    assert 1 <= fill.iterations <= len(rows)
    assert sorted(fill.links) == sorted({link for row in rows for link in row})
    recount = link_loads_indexed(rows, fill.rates, capacities.size)
    assert recount[fill.links].tolist() == fill.loads
    # Every demand froze in a round some link of its row tied in.
    shares = _shares_by_link(fill)
    for row, weight, rate in zip(rows, weights, fill.rates):
        assert rate == weight * min(shares[link] for link in row)
    demands = [(tuple((f"l{link}", "x") for link in row), w) for row, w in zip(rows, weights)]
    caps = {(f"l{link}", "x"): float(cap) for link, cap in enumerate(capacities)}
    assert_rates_equal(fill.rates, maxmin_allocate_reference(demands, caps))


class TestStartRegimes:
    """One fill on small and large, random and tie-heavy rows."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_random_csrs_on_both_sides_of_threshold(self, seed, tie_heavy):
        rng = random.Random(4000 + seed)
        for num_demands in (
            1,
            rng.randint(2, LARGE_FILL - 1),
            LARGE_FILL,
            rng.randint(LARGE_FILL + 1, 3 * LARGE_FILL),
        ):
            assert_one_fill_holds(*random_rows(rng, num_demands, tie_heavy))

    @pytest.mark.parametrize("components", [1, 3, 8])
    def test_symmetric_components_tie_exactly(self, components):
        # Identical components over disjoint links: every share ties
        # across components, and weights 1/2/3 tie within them.
        assert_one_fill_holds(*_replicated_rows(components=components)[:3])

    def test_empty_fill(self):
        fill = maxmin_allocate_indexed([], [], np.ones(4))
        assert (fill.rates, fill.iterations, fill.links, fill.loads) == ([], 0, [], [])


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

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_pinned_boundary_reproduces_the_combined_fill(self, seed, tie_heavy):
        # The network's region fill: a random region's demands free, every
        # other demand crossing the region's links cut to those links and
        # pinned at its level in the combined fill (anchored when a link
        # outside holds it there). Nothing contradicts a pin taken from
        # the same fill, and the region's rates and its links' loads and
        # saturation shares come back bit for bit.
        rng = random.Random(9000 + seed)
        rows, weights, capacities = random_rows(rng, rng.randint(2, 120), tie_heavy)
        combined = maxmin_allocate_indexed(rows, weights, capacities)
        shares = _shares_by_link(combined)
        region = set(rng.sample(range(len(rows)), rng.randint(1, max(1, len(rows) // 4))))
        covered = {link for j in region for link in rows[j]}
        sub_rows, sub_weights, levels, anchored, picked = [], [], [], [], []
        for j, row in enumerate(rows):
            level = float("inf")
            if j not in region:
                inside = [link for link in row if link in covered]
                if not inside:
                    continue
                level = min(shares[link] for link in row)
                assert combined.rates[j] == weights[j] * level
                outside = [shares[link] for link in row if link not in covered]
                if min(outside, default=float("inf")) <= level:
                    anchored.append(len(sub_rows))
                row = inside
            sub_rows.append(row)
            sub_weights.append(weights[j])
            levels.append(level)
            picked.append(j)
        fill = maxmin_allocate_indexed(sub_rows, sub_weights, capacities, levels, anchored)
        assert list(fill.contradicted) == []
        assert fill.rates == [combined.rates[j] for j in picked]
        assert _shares_by_link(fill) == {link: shares[link] for link in covered}
        loads = _loads_by_link(combined)
        assert _loads_by_link(fill) == {link: loads[link] for link in covered}

    def test_a_pin_the_fill_cannot_hold_is_contradicted(self):
        # Demand 1 is pinned at 40 on link 0 alone, but link 0 (capacity
        # 100, shared with free demand 0) saturates at 50: no link holds
        # the pin, so the fill reports it. Anchored at 40 instead, it is
        # held there and demand 0 takes the other 60.
        rows, weights, capacities = [[0], [0]], [1.0, 1.0], np.array([100.0])
        fill = maxmin_allocate_indexed(rows, weights, capacities, [float("inf"), 40.0])
        assert (fill.rates, list(fill.contradicted)) == ([50.0, 50.0], [1])
        fill = maxmin_allocate_indexed(rows, weights, capacities, [float("inf"), 40.0], [1])
        assert (fill.rates, list(fill.contradicted)) == ([60.0, 40.0], [])
        assert fill.saturation == [60.0]
        # Pinned at 60 and anchored there, link 0 saturates at 50 first.
        fill = maxmin_allocate_indexed(rows, weights, capacities, [float("inf"), 60.0], [1])
        assert (fill.rates, list(fill.contradicted)) == ([50.0, 50.0], [1])
