"""Planted faults: the invariant battery kills each planted wrong write.

Each fault is a class-level monkeypatch that makes one wrong write.
Faults (a)-(d) break an ownership contract: the control plane writing
network state it does not own, or the region refill writing state of a
flow it did not re-fill. Fault (e) leaves a released flow-store row's
rate in the hole, where the moved last row's flow then reads it. Fault
(f) leaves a failed cable's dead demands' loads behind. Fault (g) makes
the refill replay every boundary demand at its stored level, so one
whose level no link holds any more keeps a stale rate. Fault (h) makes
a release move the last row without re-pointing that row's flow. Fault
(i) gives a component's row the reverse id of one of its cables, which
only a recount that derives links from node paths can see. On each seed
:func:`~repro.validation.fuzz.run_case` must raise, naming the
invariant that caught it. A fault turned into a no-op fails its test,
so this measures the battery's reach instead of assuming it
(EXPERIMENTS.md "Planted ownership faults").

Fault (g) is also the evidence for the two checks that replay the global
fill, each on its own: the in-run ``incremental-vs-full`` oracle and the
:data:`~repro.validation.twins.FULL_REFILL` twin.

Faults (a)-(e), (g) and (h) run on DARD fuzz cases whose drawn regime
promotes elephants and shifts flows: without a running control plane,
the faults planted in the daemon round and the monitor poll never
execute. Fault (f) runs on DARD fuzz cases that draw a failure storm.
Fault (i) runs on every scheduler's placements, so two VLB cases join
the DARD ones.
"""

import numpy as np
import pytest

from repro.common.errors import InvariantViolation, OracleViolation
from repro.core.daemon import HostDaemon
from repro.experiments.runner import run_scenario
from repro.simulator.flows import FlowComponent
from repro.simulator.flowstore import FlowStore
from repro.simulator.network import Network
from repro.validation import FULL_REFILL, random_scenario, run_case, twin_run
from repro.validation.oracles import check_incremental_against_full

#: DARD fuzz seeds that promote elephants and make at least one shift.
SHIFTING_DARD_SEEDS = (12, 45, 160, 174)

#: DARD fuzz seeds (from the extended 500-559 sweep) that draw link
#: failures under live traffic.
STORM_DARD_SEEDS = (504, 516, 532, 548)

#: Fault (i)'s seeds: the shifting DARD seeds, and two VLB seeds on which
#: a recount that read the rows it audits would miss the fault outright.
REVERSED_HOP_SEEDS = SHIFTING_DARD_SEEDS + (0, 2)

#: The recount families that see a flow's links where its node paths put
#: them: counters, loads and index entries all land on the wrong link.
RECOUNT_INVARIANTS = ("elephant-counter", "persistent-load", "component-index")


def _patch_refill(monkeypatch, corrupt):
    """Make ``_refill_dirty`` hand ``corrupt`` the live flows it did not
    re-fill (the same ``component_rates`` list before and after)."""
    original = Network._refill_dirty

    def refill(self):
        before = {fid: flow.component_rates for fid, flow in self.flows.items()}
        original(self)
        untouched = [
            flow for fid, flow in self.flows.items() if flow.component_rates is before.get(fid)
        ]
        if untouched:
            corrupt(self, untouched)

    monkeypatch.setattr(Network, "_refill_dirty", refill)


def elephant_count_on_poll(monkeypatch):
    """(a) A monitor poll adds one elephant to a link it queried."""
    original = Network.batch_path_state_arrays

    def poll(self, hops):
        out = original(self, hops)
        if hops.size:
            self._eleph_array[hops[0, 0]] += 1
        return out

    monkeypatch.setattr(Network, "batch_path_state_arrays", poll)


def rate_halved_by_round(monkeypatch):
    """(b) A daemon's scheduling round halves one live flow's rate."""
    original = HostDaemon.run_scheduling_round

    def round_(self):
        shifts = original(self)
        store = self.network.flow_store
        rows = np.flatnonzero(store.rate_bps[: store.size] > 0.0)
        if rows.size:
            store.rate_bps[rows[0]] *= 0.5
        return shifts

    monkeypatch.setattr(HostDaemon, "run_scheduling_round", round_)


def load_outside_component(monkeypatch):
    """(c) The region refill adds 1 bps of load on a link of a flow it did
    not re-fill."""

    def corrupt(network, untouched):
        network._load_array[untouched[0].unique_link_ids[0]] += 1.0

    _patch_refill(monkeypatch, corrupt)


def rate_ulp_outside_component(monkeypatch):
    """(d) The region refill lowers an untouched live flow's rate by one ulp.

    The refill is a declared writer of the rate column, so a per-writer
    ownership table cannot see this write; only the bit-exact rate check
    can.
    """

    def corrupt(network, untouched):
        rates = network.flow_store.rate_bps
        for flow in untouched:
            row = flow.store_row
            if rates[row] > 0.0:
                rates[row] = np.nextafter(rates[row], 0.0)
                return

    _patch_refill(monkeypatch, corrupt)


def release_keeps_rate(monkeypatch):
    """(e) ``FlowStore.release`` puts the released row's rate back after
    the row move: the flow moved into the hole takes the finished flow's
    rate."""
    original = FlowStore.release

    def release(self, row):
        rate = self.rate_bps[row]
        original(self, row)
        self.rate_bps[row] = rate

    monkeypatch.setattr(FlowStore, "release", release)


def failure_keeps_dead_loads(monkeypatch):
    """(f) A cable failure re-rates the flows crossing the cable, but its
    splice leaves the cable's own links alone, so the loads of the
    demands the failure killed stay in the persistent load array."""
    original = Network._reallocate_cable

    def reallocate(self, ids):
        if ids[0] not in self._failed_ids:
            original(self, ids)  # a restore
            return
        kept = self._load_array[list(ids)].copy()
        original(self, ids)
        self._load_array[list(ids)] = kept

    monkeypatch.setattr(Network, "_reallocate_cable", reallocate)


def anchor_every_boundary_demand(monkeypatch):
    """(g) The region refill anchors every boundary demand at its stored
    level, as if a link outside the fill still froze it there. A boundary
    demand whose level no link reproduces any more is accepted instead
    of rerun, and keeps its old rate."""
    original = Network._assemble_region

    def assemble(self, flow_ids, boundary, fill_links):
        rows, weights, levels, anchored, owners, late = original(
            self, flow_ids, boundary, fill_links
        )
        if levels is not None:
            anchored = [j for j, level in enumerate(levels) if level < float("inf")]
        return rows, weights, levels, anchored, owners, late

    monkeypatch.setattr(Network, "_assemble_region", assemble)


def release_forgets_moved_flow(monkeypatch):
    """(h) ``FlowStore.release`` moves the last row into the hole but
    leaves that row's flow on the old last row, past the live ones."""
    original = FlowStore.release

    def release(self, row):
        moved = self._views[-1]
        original(self, row)
        if row < self.size:  # the last row moved into the hole
            moved._row = self.size

    monkeypatch.setattr(FlowStore, "release", release)


def reversed_uplink_id(monkeypatch):
    """(i) ``Network.component`` gives the row's ToR -> agg hop the id of
    the same cable's agg -> ToR direction. The row still runs from the
    source's access link to the destination's, so ``start_flow`` and
    ``reroute_flow`` accept it."""
    original = Network.component

    def component(self, src, dst, paths, index, weight=1.0):
        made = original(self, src, dst, paths, index, weight)
        row = list(made.link_ids)
        if len(row) > 2:  # a same-ToR row has no ToR -> agg hop
            u, v = self.link_index.links[row[1]]
            row[1] = self.link_index.id_of((v, u))
        return FlowComponent(made.index, row, made.weight)

    monkeypatch.setattr(Network, "component", component)


#: (fault, the invariant that must kill it). The KKT certificate is the
#: battery's first check to see fault (g): the boundary demand it keeps
#: at a stale rate has no saturated bottleneck left, while every load
#: still matches the rates.
FAULTS = (
    (elephant_count_on_poll, "elephant-counter"),
    (rate_halved_by_round, "flow-store-rate"),
    (load_outside_component, "persistent-load"),
    (rate_ulp_outside_component, "flow-store-rate"),
    (release_keeps_rate, "flow-store-rate"),
    (anchor_every_boundary_demand, "maxmin-kkt"),
    (release_forgets_moved_flow, "flow-store"),
)


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
def test_clean_case_shifts_and_passes(seed):
    config = random_scenario(seed)
    assert config.scheduler == "dard"
    result = run_case(config)
    assert result.peak_elephants > 0
    assert result.dard_shifts > 0


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
@pytest.mark.parametrize(
    "fault, invariant", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS]
)
def test_fault_is_killed(monkeypatch, fault, invariant, seed):
    fault(monkeypatch)
    with pytest.raises(InvariantViolation) as caught:
        run_case(random_scenario(seed))
    assert caught.value.invariant == invariant


@pytest.mark.parametrize("seed", STORM_DARD_SEEDS)
def test_clean_storm_case_passes(seed):
    config = random_scenario(seed)
    assert config.scheduler == "dard"
    assert any(kind == "fail" for kind, *_ in config.link_events)
    run_case(config)


@pytest.mark.parametrize("seed", STORM_DARD_SEEDS)
def test_failure_fault_is_killed(monkeypatch, seed):
    failure_keeps_dead_loads(monkeypatch)
    with pytest.raises(InvariantViolation) as caught:
        run_case(random_scenario(seed))
    assert caught.value.invariant == "persistent-load"


@pytest.mark.parametrize("seed", REVERSED_HOP_SEEDS)
def test_reversed_hop_is_killed_by_a_recount(monkeypatch, seed):
    # The recount expands each component's node path itself; had it read
    # the component's row, it would agree with every wrong write.
    reversed_uplink_id(monkeypatch)
    with pytest.raises(InvariantViolation) as caught:
        run_case(random_scenario(seed))
    assert caught.value.invariant in RECOUNT_INVARIANTS


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
def test_skipped_component_is_killed_by_the_oracle(monkeypatch, seed):
    # Fault (g) skips the rerun a contradicted boundary component needs;
    # run_case's incremental-vs-full oracle catches it on its own, after
    # every event.
    anchor_every_boundary_demand(monkeypatch)

    def attach_oracle(network):
        network.engine.add_after_event_hook(lambda: check_incremental_against_full(network))

    with pytest.raises(OracleViolation) as caught:
        run_scenario(random_scenario(seed), instrument=attach_oracle)
    assert caught.value.oracle == "incremental-vs-full"


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
def test_skipped_component_is_killed_by_the_twin(monkeypatch, seed):
    # The global-fill twin on its own: the twin's network never builds a
    # region, so only the production run carries the fault.
    anchor_every_boundary_demand(monkeypatch)
    with pytest.raises(OracleViolation) as caught:
        twin_run(random_scenario(seed), FULL_REFILL)
    assert caught.value.oracle == FULL_REFILL.oracle


#: The faults a run's results can see. Fault (c) corrupts state only: a
#: refill zeroes a link's load before it re-scatters and reads it, so the
#: extra bit/s never reaches a rate or a utilization. Fault (h) crashes
#: the uninstrumented run instead: the finisher scan meets a live row
#: that still holds a finished flow's id.
BEHAVIOUR_CHANGING = (
    elephant_count_on_poll,
    rate_halved_by_round,
    rate_ulp_outside_component,
    release_keeps_rate,
    anchor_every_boundary_demand,
)


@pytest.mark.parametrize(
    "fault", BEHAVIOUR_CHANGING, ids=[fault.__name__ for fault in BEHAVIOUR_CHANGING]
)
def test_fault_changes_behaviour(monkeypatch, fault):
    # A killed fault that changed nothing visible would be weak evidence:
    # each of these must move the seed-12 run's records or shift journal.
    config = random_scenario(SHIFTING_DARD_SEEDS[0])
    clean = run_scenario(config)
    fault(monkeypatch)
    faulty = run_scenario(config)
    assert (faulty.records, faulty.dard_shift_log) != (clean.records, clean.dard_shift_log)
