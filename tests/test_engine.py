"""Tests for the discrete-event engine."""

import pytest

from repro.common.errors import SimulationError
from repro.simulator import EventEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        log = []
        engine.schedule_at(3.0, lambda: log.append("c"))
        engine.schedule_at(1.0, lambda: log.append("a"))
        engine.schedule_at(2.0, lambda: log.append("b"))
        engine.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        engine = EventEngine()
        log = []
        engine.schedule_at(1.0, lambda: log.append("first"))
        engine.schedule_at(1.0, lambda: log.append("second"))
        engine.run_until(1.0)
        assert log == ["first", "second"]

    def test_clock_advances_to_end_time(self):
        engine = EventEngine()
        engine.run_until(5.0)
        assert engine.now == 5.0

    def test_past_scheduling_rejected(self):
        engine = EventEngine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_in(-1.0, lambda: None)

    def test_events_beyond_horizon_not_fired(self):
        engine = EventEngine()
        log = []
        engine.schedule_at(10.0, lambda: log.append("late"))
        engine.run_until(5.0)
        assert log == []
        engine.run_until(10.0)
        assert log == ["late"]

    def test_zero_delay_event_fires_at_now(self):
        engine = EventEngine()
        log = []
        engine.schedule_at(1.0, lambda: engine.schedule_in(0.0, lambda: log.append(engine.now)))
        engine.run_until(1.0)
        assert log == [1.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        engine = EventEngine()
        log = []
        handle = engine.schedule_at(1.0, lambda: log.append("x"))
        handle.cancel()
        engine.run_until(2.0)
        assert log == []

    def test_pending_counts_exclude_cancelled(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        drop = engine.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert engine.pending_events == 1

    def test_double_cancel_decrements_once(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        drop = engine.schedule_at(2.0, lambda: None)
        drop.cancel()
        drop.cancel()
        assert engine.pending_events == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        engine = EventEngine()
        fired = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(5.0, lambda: None)
        engine.run_until(2.0)
        fired.cancel()  # stale handle: the event already fired
        assert engine.pending_events == 1


class TestPendingEventsCounter:
    """``pending_events`` against hand counts of the live events."""

    def test_counter_tracks_schedule_cancel_fire(self):
        engine = EventEngine()
        assert engine.pending_events == 0
        handles = [engine.schedule_at(float(t), lambda: None) for t in range(1, 6)]
        assert engine.pending_events == 5
        handles[1].cancel()
        handles[3].cancel()
        assert engine.pending_events == 3
        engine.run_until(2.5)  # fires t=1, skips cancelled t=2
        assert engine.pending_events == 2
        engine.run_until_idle()
        assert engine.pending_events == 0

    def test_counter_through_periodic_and_chained_events(self):
        engine = EventEngine()
        seen = []
        engine.schedule_every(1.0, lambda: seen.append(engine.pending_events))
        engine.schedule_at(2.5, lambda: engine.schedule_in(0.25, lambda: None))
        engine.run_until(4.0)
        # While a periodic tick runs, its next tick is not yet armed: at
        # t=1 and t=2 only the t=2.5 event is live, at t=3 nothing is (the
        # chained t=2.75 event fired), at t=4 nothing either.
        assert seen == [1, 1, 0, 0]
        # The periodic reschedules itself: exactly one live event remains.
        assert engine.pending_events == 1

    def test_counter_when_callback_cancels_future_event(self):
        engine = EventEngine()
        victim = engine.schedule_at(3.0, lambda: None)
        seen = []
        engine.schedule_at(1.0, lambda: (victim.cancel(), seen.append(engine.pending_events)))
        engine.run_until_idle()
        assert seen == [0]
        assert engine.pending_events == 0


class TestPeriodic:
    def test_fixed_interval(self):
        engine = EventEngine()
        times = []
        engine.schedule_every(2.0, lambda: times.append(engine.now))
        engine.run_until(7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_jitter_added_each_round(self):
        engine = EventEngine()
        times = []
        engine.schedule_every(5.0, lambda: times.append(engine.now), jitter=lambda: 1.0)
        engine.run_until(20.0)
        assert times == [6.0, 12.0, 18.0]

    def test_invalid_interval(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_every(0.0, lambda: None)


class TestRunUntilIdle:
    def test_drains_chained_events(self):
        engine = EventEngine()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                engine.schedule_in(1.0, lambda: chain(n + 1))

        engine.schedule_in(1.0, lambda: chain(0))
        engine.run_until_idle()
        assert log == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        engine = EventEngine()
        for _ in range(4):
            engine.schedule_in(1.0, lambda: None)
        engine.run_until_idle()
        assert engine.events_processed == 4
