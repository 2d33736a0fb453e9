"""The discrete-event loop.

Events are ``(time, sequence, callback)`` triples kept in a heap.  The
sequence number breaks ties so that two events scheduled for the same
instant run in the order they were scheduled, which keeps the whole
simulation deterministic.

Sequence numbers are unique, so ordering resolves entirely inside the
C tuple comparison -- the callback itself is never compared.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.netsim.clock import SimClock


class EventLoop:
    """A deterministic discrete-event scheduler over a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` ms from now.

        A zero delay is allowed and runs after already-queued events for
        the current instant.  Negative delays are rejected.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.clock.now() + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self.clock.now():
            raise ValueError(
                f"cannot schedule at {when}, clock is already at {self.clock.now()}"
            )
        if when.__class__ is not float:
            when = float(when)  # the loop hands it to the clock as is
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))

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
            when, _seq, callback = heappop(heap)
            clock._now = when
            callback()
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
        while heap and heap[0][0] <= when:
            head_when, _head_seq, callback = heappop(heap)
            clock._now = head_when
            callback()
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events before {when}"
                )
        if when > self.clock.now():
            self.clock.advance_to(when)
        return count
