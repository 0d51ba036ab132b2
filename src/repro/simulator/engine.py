"""Discrete-event engine: a time-ordered heap of callbacks.

Cancellation is O(1) via handle invalidation: cancelled events stay in the
heap and are skipped when popped. Ties break by schedule order, so runs are
fully deterministic.

The live-event count is maintained incrementally — push increments,
cancel and fire decrement — so :attr:`EventEngine.pending_events` is O(1)
instead of a heap scan (the packet-level simulator's run loop reads it
around every one-second slice to spot a wedged run).
:meth:`EventEngine.audit_pending_events` is the full-scan reference the
tests assert the counter against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError


class EventHandle:
    """A scheduled event; call :meth:`cancel` to invalidate it."""

    __slots__ = ("time", "callback", "cancelled", "_engine", "_fired")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        #: owning engine, for live-count maintenance on cancel.
        self._engine: Optional["EventEngine"] = None
        #: set when the event has been popped and executed — cancelling a
        #: fired handle must not decrement the live count again.
        self._fired = False

    def cancel(self) -> None:
        """Invalidate the event; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            if not self._fired and self._engine is not None:
                self._engine._live_events -= 1
        self.callback = None  # free references early


class EventEngine:
    """A classic event heap with a monotonically advancing clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._live_events = 0
        self._after_event_hooks: List[Callable[[], None]] = []

    # -- instrumentation ------------------------------------------------------

    def add_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every processed event (validation probes).

        Hooks fire once per event callback, after it returns and with the
        clock still at the event's time — the quiescent points where the
        simulation's invariants must hold. Hooks may schedule new events
        but must not raise unless the run should abort (the validation
        layer's invariant checkers raise
        :class:`~repro.common.errors.InvariantViolation` on purpose).
        """
        self._after_event_hooks.append(hook)

    def remove_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Detach a previously added after-event hook (no-op if absent)."""
        try:
            self._after_event_hooks.remove(hook)
        except ValueError:
            pass

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        handle = EventHandle(time, callback)
        handle._engine = self
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        self._live_events += 1
        return handle

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback)

    def reschedule(
        self,
        handle: Optional[EventHandle],
        delay: float,
        callback: Callable[[], None],
    ) -> Tuple[EventHandle, bool]:
        """Replace ``handle`` with a fresh event ``delay`` from now.

        Returns ``(new_handle, preserved)`` where ``preserved`` is True
        when the replacement fires at exactly the old handle's time — the
        network's events-preserved/rescheduled telemetry. The old entry is
        always cancelled and a new one always pushed (never reused in
        place), so the tie-breaking sequence numbers advance identically
        whether or not the fire time moved — same-time event ordering, and
        therefore whole-run determinism, cannot depend on how often the
        recomputed time happens to coincide with the old one.
        """
        new = self.schedule_in(delay, callback)
        preserved = (
            handle is not None and not handle.cancelled and handle.time == new.time
        )
        if handle is not None:
            handle.cancel()
        return new, preserved

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: Optional[Callable[[], float]] = None,
        start_delay: Optional[float] = None,
    ) -> None:
        """Run ``callback`` periodically; ``jitter()`` adds to each interval.

        This implements the paper's randomized control intervals (§3.1):
        DARD schedules every 5 s *plus a uniform random 1-5 s* to prevent
        synchronized path switching.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")

        def fire() -> None:
            callback()
            delay = interval + (jitter() if jitter is not None else 0.0)
            self.schedule_in(delay, fire)

        first = start_delay if start_delay is not None else interval
        first += jitter() if jitter is not None else 0.0
        self.schedule_in(first, fire)

    def run_until(self, end_time: float) -> None:
        """Process events in order until the clock would pass ``end_time``."""
        while self._heap and self._heap[0][0] <= end_time:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue  # cancel already decremented the live count
            handle._fired = True
            self._live_events -= 1
            self.now = time
            callback = handle.callback
            handle.callback = None
            self._events_processed += 1
            assert callback is not None
            callback()
            if self._after_event_hooks:
                for hook in tuple(self._after_event_hooks):
                    hook()
        self.now = max(self.now, end_time)

    def run_until_idle(self, hard_limit: float = float("inf")) -> None:
        """Drain every pending event, up to an optional time ``hard_limit``."""
        while self._heap and self._heap[0][0] <= hard_limit:
            self.run_until(self._heap[0][0])

    @property
    def pending_events(self) -> int:
        """Live (not cancelled, not fired) events, maintained in O(1)."""
        return self._live_events

    def audit_pending_events(self) -> int:
        """O(n) full-heap recount of live events (test oracle for the counter)."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed
