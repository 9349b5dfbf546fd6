"""Simulated clock and the discrete-event queue driving asynchronous work.

All timing in the distributed substrate is *simulated*: the clock advances
only when the simulation says so (message latency, transmission time,
processing delays).  This keeps every experiment deterministic and
independent of the speed of the machine running the reproduction, which is
what lets the benchmark harness reproduce the paper's comparative *shapes*
rather than wall-clock numbers from a 2003 testbed.

Two timing primitives live here:

* :class:`SimClock` — the monotonically advancing simulated clock every
  subsystem charges its costs to.
* :class:`EventQueue` — a discrete-event scheduler over a :class:`SimClock`.
  Asynchronous completions (pipelined invocations, delayed retries) are
  callbacks scheduled at future simulated timestamps; draining the queue
  advances the clock to each event's time and fires it.  Because several
  events can be scheduled before any of them fires, in-flight work overlaps
  in simulated time — this is what lets the pipelining layer charge one
  round-trip latency for a whole window of concurrent batches.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass
class SimClock:
    """A monotonically advancing simulated clock measured in seconds."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance simulated time by ``seconds`` (negative values are ignored)."""
        if seconds <= 0:
            return self.now
        return self.advance_to(self.now + seconds)

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it lies in the future.

        The clock lands on ``timestamp`` exactly — not on ``now + (timestamp
        - now)``, which can round one ulp away — so an event fires at
        precisely the instant it was scheduled for.
        """
        if timestamp > self.now:
            self.now = timestamp
        return self.now


class EventQueue:
    """A discrete-event scheduler bound to one :class:`SimClock`.

    Callbacks are scheduled at absolute simulated timestamps and fired in
    timestamp order (FIFO among equal timestamps, so same-time events are
    deterministic).  Firing an event first advances the clock to the event's
    time; callbacks may schedule further events, which keeps the simulation
    running until the queue drains.

    The queue never runs spontaneously — somebody must pump it.  The
    pipelining layer pumps it when a caller waits on a future
    (:meth:`~repro.runtime.pipelining.InvocationFuture.result`) or drains a
    scheduler; tests can pump it directly via :meth:`run_next` /
    :meth:`run_until_idle`.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        #: Total number of events fired over the queue's lifetime.
        self.events_fired = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> float:
        """Schedule ``callback`` to fire ``delay`` simulated seconds from now.

        Negative delays are clamped to zero.  Returns the absolute fire time.
        """
        return self.schedule_at(self.clock.now + max(0.0, delay), callback)

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> float:
        """Schedule ``callback`` at an absolute timestamp (>= now)."""
        fire_time = max(timestamp, self.clock.now)
        heapq.heappush(self._heap, (fire_time, next(self._sequence), callback))
        return fire_time

    def next_fire_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def run_next(self) -> bool:
        """Fire the earliest pending event; returns False when idle.

        The clock is advanced to the event's timestamp before the callback
        runs (a callback that finds the clock already past its fire time —
        because synchronous work advanced it further — runs at the later
        time; simulated time never moves backwards).
        """
        if not self._heap:
            return False
        fire_time, _, callback = heapq.heappop(self._heap)
        self.clock.advance_to(fire_time)
        self.events_fired += 1
        callback()
        return True

    def run_until(self, timestamp: float, max_events: int = 1_000_000) -> int:
        """Fire every event scheduled at or before ``timestamp``; returns the count.

        The clock is left at ``timestamp`` (or later, if a callback advanced
        it further) so a caller waiting a bounded amount of simulated time —
        a fault-tolerant invoker waiting out a failover, a test stepping a
        heartbeat detector — observes exactly the events of that interval.
        Unlike :meth:`run_until_idle`, self-rescheduling periodic events (a
        heartbeat loop) do not keep this method alive past the deadline.
        """
        fired = 0
        while fired < max_events:
            next_time = self.next_fire_time()
            if next_time is None or next_time > timestamp:
                break
            self.run_next()
            fired += 1
        self.clock.advance_to(timestamp)
        return fired

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Fire events until the queue drains; returns the number fired.

        ``max_events`` bounds runaway callback loops (an event that always
        schedules a successor would otherwise spin forever).
        """
        fired = 0
        while fired < max_events and self.run_next():
            fired += 1
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventQueue pending={len(self._heap)} now={self.clock.now:.6f}>"
