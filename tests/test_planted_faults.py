"""Planted faults: the invariant battery kills each planted wrong write.

Each fault is a class-level monkeypatch that makes one wrong write.
Faults (a)-(d) break a component-ownership contract: the control plane
writing network state it does not own, or the dirty refill writing
state outside the component it re-fills. Fault (e) leaves a rate on a
released flow-store row, which the settle and ETA passes would then
read. Fault (f) leaves a failed cable's dead demands' loads behind.
Fault (g) makes the refill skip a dirty component, whose flows keep
stale rates. On each seed :func:`~repro.validation.fuzz.run_case` must
raise, naming the invariant that caught it. A fault turned into a no-op
fails its test, so this measures the battery's reach instead of
assuming it (EXPERIMENTS.md "Planted ownership faults").

Fault (g) is also the evidence for the two checks that replay the global
fill, each on its own: the in-run ``incremental-vs-full`` oracle and the
:data:`~repro.validation.twins.FULL_REFILL` twin.

Faults (a)-(e) and (g) run on DARD fuzz cases whose drawn regime
promotes elephants and shifts flows: without a running control plane,
the faults planted in the daemon round and the monitor poll never
execute. Fault (f) runs on DARD fuzz cases that draw a failure storm.
"""

import numpy as np
import pytest

from repro.common.errors import InvariantViolation, OracleViolation
from repro.core.daemon import HostDaemon
from repro.experiments.runner import run_scenario
from repro.simulator.components import FlowLinkComponents
from repro.simulator.flowstore import FlowStore
from repro.simulator.network import Network
from repro.validation import FULL_REFILL, random_scenario, run_case, twin_run
from repro.validation.oracles import check_incremental_against_full

#: DARD fuzz seeds that promote elephants and make at least one shift.
SHIFTING_DARD_SEEDS = (12, 45, 160, 174)

#: DARD fuzz seeds (from the extended 500-559 sweep) that draw link
#: failures under live traffic.
STORM_DARD_SEEDS = (504, 516, 532, 548)


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
        rows = np.flatnonzero(store.live[: store.size] & (store.rate_bps[: store.size] > 0.0))
        if rows.size:
            store.rate_bps[rows[0]] *= 0.5
        return shifts

    monkeypatch.setattr(HostDaemon, "run_scheduling_round", round_)


def load_outside_component(monkeypatch):
    """(c) The dirty refill adds 1 bps of load on a link of a flow it did
    not re-fill, so outside the refilled component."""

    def corrupt(network, untouched):
        network._load_array[untouched[0].unique_link_ids[0]] += 1.0

    _patch_refill(monkeypatch, corrupt)


def rate_ulp_outside_component(monkeypatch):
    """(d) The dirty refill lowers an untouched live flow's rate by one ulp.

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
    """(e) ``FlowStore.release`` skips the rate reset: the dead row keeps
    the rate its flow finished with."""
    original = FlowStore.release

    def release(self, row):
        rate = self.rate_bps[row]
        original(self, row)
        self.rate_bps[row] = rate

    monkeypatch.setattr(FlowStore, "release", release)


def failure_keeps_dead_loads(monkeypatch):
    """(f) A cable failure dirties the cable's links but does not retire
    the links of the flows crossing it, so the loads of the demands the
    failure killed stay in the persistent load array."""
    original = Network._reallocate_cable

    def reallocate(self, ids):
        if ids[0] not in self._failed_ids:
            original(self, ids)  # a restore
            return
        self._components.touch(ids)
        self._stat_realloc_sync += 1
        self._reallocate()

    monkeypatch.setattr(Network, "_reallocate_cable", reallocate)


def drop_last_dirty_component(monkeypatch):
    """(g) ``consume_dirty`` drops the last dirty component it walks, so
    the refill leaves that component's flows at their previous rates."""

    def consume_dirty(self):
        dirty, self._dirty_links = self._dirty_links, set()
        links, flows, last = set(), set(), set()
        touched = 0
        for link in sorted(dirty):
            if link not in links and link in self._link_flows:
                touched += 1
                walked = set(flows)
                self._walk(link, links, flows)
                last = flows - walked
        return touched, sorted(flows - last)

    monkeypatch.setattr(FlowLinkComponents, "consume_dirty", consume_dirty)


#: (fault, the invariant that must kill it). The KKT certificate is the
#: battery's first check to see a skipped component: a flow that joined
#: it still has rate 0 on links with room to spare.
FAULTS = (
    (elephant_count_on_poll, "elephant-counter"),
    (rate_halved_by_round, "flow-store-rate"),
    (load_outside_component, "persistent-load"),
    (rate_ulp_outside_component, "flow-store-rate"),
    (release_keeps_rate, "flow-store-dead-rate"),
    (drop_last_dirty_component, "maxmin-kkt"),
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


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
def test_skipped_component_is_killed_by_the_oracle(monkeypatch, seed):
    # run_case's incremental-vs-full oracle on its own, after every event.
    drop_last_dirty_component(monkeypatch)

    def attach_oracle(network):
        network.engine.add_after_event_hook(lambda: check_incremental_against_full(network))

    with pytest.raises(OracleViolation) as caught:
        run_scenario(random_scenario(seed), instrument=attach_oracle)
    assert caught.value.oracle == "incremental-vs-full"


@pytest.mark.parametrize("seed", SHIFTING_DARD_SEEDS)
def test_skipped_component_is_killed_by_the_twin(monkeypatch, seed):
    # The global-fill twin on its own: the twin's network never consumes
    # dirty marks, so only the production run carries the fault.
    drop_last_dirty_component(monkeypatch)
    with pytest.raises(OracleViolation) as caught:
        twin_run(random_scenario(seed), FULL_REFILL)
    assert caught.value.oracle == FULL_REFILL.oracle


#: The faults a run's results can see. Fault (c) corrupts state only: a
#: refill zeroes a link's load before it re-scatters and reads it, so the
#: extra bit/s never reaches a rate or a utilization.
BEHAVIOUR_CHANGING = (
    elephant_count_on_poll,
    rate_halved_by_round,
    rate_ulp_outside_component,
    drop_last_dirty_component,
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
