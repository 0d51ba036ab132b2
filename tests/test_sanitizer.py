"""Runtime ownership sanitizer tests: barriers, wrappers, bit-identity.

The sanitizer is the dynamic half of the parallel-safety story: the
static rules (RACE001/OWN001, see ``test_parallel_safety.py``) claim
that guarded arrays are only written by their declared writers; these
tests prove the claim holds at runtime — unsanctioned writes raise,
sanctioned paths still run, wrappers come off cleanly, and a sanitized
scenario run is bit-identical to an uninstrumented one.
"""

from pathlib import Path

import pytest

from repro.common.units import MB, MBPS
from repro.lint import LintConfig, run_lint
from repro.simulator import FlowComponent, Network
from repro.topology import FatTree
from repro.validation.sanitizer import (
    OwnershipSanitizer,
    guarded_column_attrs,
    guarded_network_attrs,
)


REPO_FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


@pytest.fixture
def net():
    return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))


def component(net, src, dst, index=0):
    topo = net.topology
    path = topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))[index]
    return FlowComponent(topo.host_path(src, dst, path))


def _hosts(net):
    hosts = net.topology.hosts()
    return hosts[0], hosts[-1]


class TestWriteBarrier:
    def test_unsanctioned_network_write_raises(self, net):
        with OwnershipSanitizer(net):
            with pytest.raises(ValueError, match="read-only"):
                net._load_array[0] = 5.0

    def test_unsanctioned_column_write_raises(self, net):
        src, dst = _hosts(net)
        flow = net.start_flow(src, dst, 1 * MB, [component(net, src, dst)])
        with OwnershipSanitizer(net):
            with pytest.raises(ValueError, match="read-only"):
                net.flow_store.remaining_bytes[flow._row] = 0.0

    def test_every_guarded_array_is_locked(self, net):
        src, dst = _hosts(net)
        net.start_flow(src, dst, 1 * MB, [component(net, src, dst)])
        with OwnershipSanitizer(net):
            for attr in guarded_network_attrs():
                assert not getattr(net, attr).flags.writeable, attr
            for attr in guarded_column_attrs():
                assert not getattr(net.flow_store, attr).flags.writeable, attr

    def test_barriers_lift_on_exit(self, net):
        with OwnershipSanitizer(net):
            pass
        net._load_array[0] = 5.0  # must not raise
        net.flow_store.rate_bps[0] = 1.0

    def test_runtime_trip_matches_static_race001_verdict(self, net, tmp_path):
        # The race001_bad fixture's crime is a non-writer mutating
        # _total_array; the sanitizer rejects the same write at runtime.
        fixture = (
            REPO_FIXTURES / "repro" / "simulator" / "race001_bad.py"
        )
        findings, _ = run_lint([str(fixture)], LintConfig())
        assert [f.code for f in findings] == ["RACE001"]
        assert "_total_array" in findings[0].message
        with OwnershipSanitizer(net):
            with pytest.raises(ValueError, match="read-only"):
                net._total_array[0] += 1


class TestSanctionedPaths:
    def test_start_flow_and_drain_run_sanitized(self, net):
        src, dst = _hosts(net)
        with OwnershipSanitizer(net):
            flow = net.start_flow(src, dst, 1 * MB, [component(net, src, dst)])
            net.engine.run_until(60.0)
        assert flow.end_time is not None

    def test_fail_and_restore_link_run_sanitized(self, net):
        link = next(iter(net.topology.links()))
        u, v = link.u, link.v
        with OwnershipSanitizer(net):
            net.fail_link(u, v)
            net.restore_link(u, v)

    def test_store_growth_rebinds_stay_guarded(self, net):
        # _grow rebinds every column; the sanitizer must re-lock the
        # *new* arrays, not the stale ones it locked at install time.
        src, dst = _hosts(net)
        with OwnershipSanitizer(net):
            for _ in range(net.flow_store.capacity + 1):
                net.start_flow(src, dst, 1 * MB, [component(net, src, dst)])
            with pytest.raises(ValueError, match="read-only"):
                net.flow_store.remaining_bytes[0] = 0.0


class TestLifecycle:
    def test_wrappers_come_off_with_last_sanitizer(self, net):
        with OwnershipSanitizer(net):
            assert hasattr(Network.reroute_flow, "__sanitizer_wrapped__")
        assert not hasattr(Network.reroute_flow, "__sanitizer_wrapped__")

    def test_unattached_instances_fall_through(self, net):
        other = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        src, dst = _hosts(other)
        with OwnershipSanitizer(net):
            # `other` has no sanitizer: the class-level wrapper takes a
            # dictionary miss and runs the original unlocked.
            other.start_flow(src, dst, 1 * MB, [component(other, src, dst)])
            other._load_array[0] = 5.0  # must not raise

    def test_install_is_idempotent(self, net):
        sanitizer = OwnershipSanitizer(net)
        sanitizer.install()
        sanitizer.install()
        sanitizer.uninstall()
        assert not hasattr(Network.reroute_flow, "__sanitizer_wrapped__")
        net._load_array[0] = 5.0  # must not raise


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_sanitized_case_is_bit_identical(self, seed):
        from repro.validation.fuzz import random_scenario, run_case

        config = random_scenario(seed)
        plain = run_case(config)
        sanitized = run_case(config, sanitize=True)
        assert plain.records == sanitized.records
