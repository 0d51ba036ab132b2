"""Tests for the logging facility and the network statistics sampler."""

import logging

import pytest

from repro.common import enable_console_logging, get_logger
from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.analysis import NetworkStatsSampler
from repro.simulator import Network
from repro.topology import FatTree

from tests.conftest import pair_component


class TestLogging:
    def test_namespacing(self):
        assert get_logger("core.daemon").name == "repro.core.daemon"
        assert get_logger("repro.simulator").name == "repro.simulator"

    def test_silent_by_default(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_enable_and_remove_console_handler(self):
        handler = enable_console_logging(logging.DEBUG)
        root = logging.getLogger("repro")
        try:
            assert handler in root.handlers
            assert root.level == logging.DEBUG
        finally:
            root.removeHandler(handler)

    def test_failure_events_logged(self, caplog):
        net = Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))
        with caplog.at_level(logging.INFO, logger="repro"):
            net.fail_link("core_0_0", "agg_0_0")
            net.restore_link("core_0_0", "agg_0_0")
        messages = [r.message for r in caplog.records]
        assert any("failed" in m for m in messages)
        assert any("restored" in m for m in messages)


class TestNetworkStatsSampler:
    def _net(self):
        return Network(FatTree(p=4, link_bandwidth_bps=100 * MBPS))

    def _start(self, net, src, dst, size):
        return net.start_flow(src, dst, size, [pair_component(net, src, dst)])

    def test_samples_track_activity(self):
        net = self._net()
        sampler = NetworkStatsSampler(net, interval_s=1.0)
        self._start(net, "h_0_0_0", "h_1_0_0", 200 * MB)  # lasts 16 s
        net.engine.run_until(12.0)
        assert sampler.peak_active_flows() == 1
        # By t=11 the flow is an elephant.
        assert sampler.samples[-1].active_elephants == 1
        assert sampler.mean_throughput_bps() == pytest.approx(100 * MBPS)

    def test_failed_links_counted_as_cables(self):
        net = self._net()
        sampler = NetworkStatsSampler(net, interval_s=1.0)
        net.fail_link("core_0_0", "agg_0_0")
        net.engine.run_until(2.0)
        assert sampler.samples[-1].failed_links == 1

    def test_busiest_instant(self):
        net = self._net()
        sampler = NetworkStatsSampler(net, interval_s=1.0)
        with pytest.raises(ConfigurationError):
            sampler.busiest_instant()
        self._start(net, "h_0_0_0", "h_1_0_0", 50 * MB)
        net.engine.run_until(3.0)
        assert sampler.busiest_instant().throughput_bps == pytest.approx(100 * MBPS)

    def test_interval_validated(self):
        with pytest.raises(ConfigurationError):
            NetworkStatsSampler(self._net(), interval_s=-1.0)
