"""Tests for trace-driven workloads (record / save / load / replay)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import MB, MBPS
from repro.addressing import HierarchicalAddressing, PathCodec
from repro.baselines import EcmpScheduler
from repro.scheduling import SchedulerContext
from repro.simulator import Network
from repro.topology import FatTree
from repro.workloads import (
    ArrivalProcess,
    StridePattern,
    TraceEntry,
    TraceRecorder,
    TraceReplay,
    WorkloadSpec,
    load_trace,
    save_trace,
)


def entry(t, src="h_0_0_0", dst="h_1_0_0", size=1 * MB):
    return TraceEntry(time_s=t, src=src, dst=dst, size_bytes=size)


class TestTraceEntry:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            entry(-1.0)
        with pytest.raises(ConfigurationError):
            TraceEntry(0.0, "a", "a", 1.0)
        with pytest.raises(ConfigurationError):
            TraceEntry(0.0, "a", "b", 0.0)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        entries = [entry(2.0), entry(1.0, dst="h_2_0_0"), entry(3.0)]
        path = tmp_path / "trace.csv"
        assert save_trace(entries, path) == 3
        loaded = load_trace(path)
        assert [e.time_s for e in loaded] == [1.0, 2.0, 3.0]  # sorted
        assert loaded[0].dst == "h_2_0_0"

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,who\n1,2\n")
        with pytest.raises(ConfigurationError):
            load_trace(path)


_TRACE_HOSTS = ["h_0_0_0", "h_0_0_1", "h_1_0_0", "h_2_0_0", "h_3_0_1"]

_entry_tuples = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from(_TRACE_HOSTS),
    st.sampled_from(_TRACE_HOSTS),
    st.floats(min_value=1e-3, max_value=1e15, allow_nan=False, allow_infinity=False),
).filter(lambda t: t[1] != t[2])


class TestTraceProperties:
    @given(st.lists(_entry_tuples, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip_bit_exact(self, tuples):
        """Arbitrary entries survive save/load with every float bit-exact."""
        entries = [TraceEntry(t, s, d, b) for t, s, d, b in tuples]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            assert save_trace(entries, path) == len(entries)
            loaded = load_trace(path)
        # Both save and load sort (stably) by time, so equality holds
        # entry for entry — including exact float identity, since Python
        # prints shortest-round-trip reprs.
        assert loaded == sorted(entries, key=lambda e: e.time_s)


class TestMalformedRows:
    """Every malformed row points at its own line (satellite contract)."""

    def _write(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,src,dst,size_bytes\n" + "".join(r + "\n" for r in rows)
        )
        return path

    def test_short_row_names_line(self, tmp_path):
        path = self._write(
            tmp_path, ["1.0,h_0_0_0,h_1_0_0,100", "2.0,h_0_0_0,h_1_0_0"]
        )
        with pytest.raises(ConfigurationError, match="line 3"):
            load_trace(path)

    def test_negative_time_names_line(self, tmp_path):
        path = self._write(tmp_path, ["-1.0,h_0_0_0,h_1_0_0,100"])
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(path)

    def test_self_flow_names_line(self, tmp_path):
        path = self._write(
            tmp_path, ["1.0,h_0_0_0,h_1_0_0,100", "2.0,h_2_0_0,h_2_0_0,100"]
        )
        with pytest.raises(ConfigurationError, match="line 3"):
            load_trace(path)

    def test_unparsable_number_names_line(self, tmp_path):
        path = self._write(tmp_path, ["1.0,h_0_0_0,h_1_0_0,banana"])
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(path)

    def test_empty_value_names_line(self, tmp_path):
        path = self._write(tmp_path, ["1.0,,h_1_0_0,100"])
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(path)


class TestReplay:
    def _scheduler(self):
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        ctx = SchedulerContext(
            network=Network(topo),
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )
        scheduler = EcmpScheduler()
        scheduler.attach(ctx)
        return ctx, scheduler

    def test_replay_fires_at_recorded_times(self):
        ctx, scheduler = self._scheduler()
        entries = [entry(1.0), entry(2.5, src="h_0_0_1", dst="h_2_0_0")]
        replay = TraceReplay(ctx.engine, ctx.topology, entries, scheduler.place)
        replay.start()
        ctx.engine.run_until(5.0)
        assert replay.flows_replayed == 2
        starts = sorted(f.start_time for f in ctx.network.records + ctx.network.active_flows())
        assert starts == [1.0, 2.5]

    def test_unknown_host_rejected(self):
        ctx, scheduler = self._scheduler()
        with pytest.raises(ConfigurationError):
            TraceReplay(ctx.engine, ctx.topology, [entry(1.0, src="ghost")], scheduler.place)

    def test_duration(self):
        ctx, scheduler = self._scheduler()
        replay = TraceReplay(ctx.engine, ctx.topology, [entry(1.0), entry(9.0)], scheduler.place)
        assert replay.duration_s == 9.0
        assert TraceReplay(ctx.engine, ctx.topology, [], scheduler.place).duration_s == 0.0


class TestRecorder:
    def test_record_then_replay_identical(self, tmp_path):
        """Record a Poisson run, replay it: flow sets are identical."""
        topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        ctx = SchedulerContext(
            network=Network(topo),
            codec=PathCodec(HierarchicalAddressing(topo)),
            rng=np.random.default_rng(0),
        )
        scheduler = EcmpScheduler()
        scheduler.attach(ctx)
        recorder = TraceRecorder(ctx.engine, scheduler.place)
        process = ArrivalProcess(
            engine=ctx.engine,
            pattern=StridePattern(topo),
            spec=WorkloadSpec(arrival_rate_per_host=0.2, duration_s=10.0, flow_size_bytes=4 * MB),
            sink=recorder,
            rng=np.random.default_rng(5),
        )
        process.start()
        ctx.engine.run_until(15.0)
        path = tmp_path / "recorded.csv"
        save_trace(recorder.entries, path)

        # Fresh stack, replay the file.
        topo2 = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
        ctx2 = SchedulerContext(
            network=Network(topo2),
            codec=PathCodec(HierarchicalAddressing(topo2)),
            rng=np.random.default_rng(0),
        )
        scheduler2 = EcmpScheduler()
        scheduler2.attach(ctx2)
        replay = TraceReplay(ctx2.engine, topo2, load_trace(path), scheduler2.place)
        replay.start()
        ctx2.engine.run_until(15.0)

        original = sorted((e.time_s, e.src, e.dst) for e in recorder.entries)
        replayed = sorted(
            (f.start_time, f.src, f.dst)
            for f in list(ctx2.network.records) + ctx2.network.active_flows()
        )
        assert [(s, d) for _, s, d in original] == [(s, d) for _, s, d in replayed]
        assert replay.flows_replayed == len(recorder.entries)

    def test_record_then_replay_bit_identical_records(self, tmp_path):
        """A recorded live run replays to byte-identical FlowRecords.

        The replayed stack consumes the same scheduler RNG stream in the
        same order (arrivals land at the same instants), so not just the
        flow set but every completed record — FCT endpoints, paths
        taken, retransmissions — must match bit for bit.
        """

        def run(sink_wrapper, arrivals_for):
            topo = FatTree(p=4, link_bandwidth_bps=100 * MBPS)
            ctx = SchedulerContext(
                network=Network(topo),
                codec=PathCodec(HierarchicalAddressing(topo)),
                rng=np.random.default_rng(7),
            )
            scheduler = EcmpScheduler()
            scheduler.attach(ctx)
            sink = sink_wrapper(ctx, scheduler)
            arrivals_for(ctx, sink)
            ctx.engine.run_until(120.0)
            return ctx, sink

        def live_arrivals(ctx, sink):
            process = ArrivalProcess(
                engine=ctx.engine,
                pattern=StridePattern(ctx.topology),
                spec=WorkloadSpec(
                    arrival_rate_per_host=0.2, duration_s=8.0, flow_size_bytes=4 * MB
                ),
                sink=sink,
                rng=np.random.default_rng(11),
            )
            process.start()

        ctx1, recorder = run(
            lambda ctx, sched: TraceRecorder(ctx.engine, sched.place), live_arrivals
        )
        path = tmp_path / "run.csv"
        save_trace(recorder.entries, path)

        def replay_arrivals(ctx, sink):
            TraceReplay(ctx.engine, ctx.topology, load_trace(path), sink).start()

        ctx2, _ = run(lambda ctx, sched: sched.place, replay_arrivals)

        records1 = list(ctx1.network.records)
        records2 = list(ctx2.network.records)
        assert records1  # the run must actually complete flows
        assert records1 == records2
