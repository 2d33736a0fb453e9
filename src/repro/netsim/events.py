"""The discrete-event loop.

Events are ``(time, sequence, event)`` triples kept in a heap.  The
sequence number breaks ties so that two events scheduled for the same
instant run in the order they were scheduled, which keeps the whole
simulation deterministic.

Heap entries are plain tuples, so ordering resolves entirely inside
the C tuple comparison -- the :class:`Event` handle itself is never
compared (sequence numbers are unique) and exists only to carry the
callback and the ``cancel`` flag.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.netsim.clock import SimClock


class Event:
    """A single scheduled callback.

    Instances sort by ``(when, seq)``, which is what the heap relies on.
    """

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.when, self.seq) == (other.when, other.seq)

    def __repr__(self) -> str:
        return (
            f"Event(when={self.when!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )


class EventLoop:
    """A deterministic discrete-event scheduler over a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._executed = 0

    @property
    def events_executed(self) -> int:
        """Number of events run so far (useful for loop-progress tests)."""
        return self._executed

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` ms from now.

        A zero delay is allowed and runs after already-queued events for
        the current instant.  Negative delays are rejected.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.clock.now() + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self.clock.now():
            raise ValueError(
                f"cannot schedule at {when}, clock is already at {self.clock.now()}"
            )
        if when.__class__ is not float:
            when = float(when)  # the loop hands it to the clock as is
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def step(self) -> bool:
        """Run the next event, if any.  Returns ``False`` when idle."""
        heap = self._heap
        while heap:
            when, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.clock._now = when
            event.callback()
            self._executed += 1
            return True
        return False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains.  Returns events executed.

        ``max_events`` guards against accidental infinite self-scheduling
        loops; hitting it raises :class:`RuntimeError` rather than
        silently hanging the test suite.
        """
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        count = 0
        while heap:
            when, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            clock._now = when
            event.callback()
            self._executed += 1
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; "
                    "likely a self-scheduling loop"
                )
        return count

    def run_until(self, when: float, max_events: int = 10_000_000) -> int:
        """Run all events scheduled strictly before or at time ``when``.

        The clock finishes at exactly ``when`` even if the last event was
        earlier, so callers can reason about elapsed wall-clock windows.
        """
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        count = 0
        while heap:
            head_when, _head_seq, head_event = heap[0]
            if head_event.cancelled:
                heappop(heap)
                continue
            if head_when > when:
                break
            heappop(heap)
            clock._now = head_when
            head_event.callback()
            self._executed += 1
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events before {when}"
                )
        if when > self.clock.now():
            self.clock.advance_to(when)
        return count
