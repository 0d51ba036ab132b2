"""Discrete-event engine: a time-ordered heap of callbacks.

Cancellation is O(1) via handle invalidation: cancelled events stay in the
heap and are skipped when popped. Ties break by schedule order, so runs are
fully deterministic.

No per-event bookkeeping beyond the heap: :attr:`EventEngine.pending_events`
counts the heap's uncancelled entries when asked (the packet-level
simulator's run loop reads it around every one-second slice to spot a
wedged run).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError


class EventHandle:
    """A scheduled event; call :meth:`cancel` to invalidate it."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Invalidate the event; it will be skipped when popped."""
        self.cancelled = True
        self.callback = None  # free references early


class EventEngine:
    """A classic event heap with a monotonically advancing clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
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
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        """Run ``callback`` every ``interval``, first ``interval`` from now;
        ``jitter()`` adds to each interval, the first one included.

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

        self.schedule_in(interval + (jitter() if jitter is not None else 0.0), fire)

    def run_until(self, end_time: float) -> None:
        """Process events in order until the clock would pass ``end_time``."""
        while self._heap and self._heap[0][0] <= end_time:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
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
        """Live (not cancelled, not fired) events: an O(n) heap count."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed
