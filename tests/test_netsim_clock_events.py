"""Unit tests for the simulated clock and event loop."""

import pytest

from repro.netsim import EventLoop, SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advances_forward(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_rejects_backwards_movement(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_is_ok(self):
        clock = SimClock(10.0)
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_repr_mentions_time(self):
        assert "5.000" in repr(SimClock(5.0))


class TestEventLoop:
    def test_runs_single_event(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append(loop.now()))
        loop.run_until_idle()
        assert fired == [5.0]

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(10.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        loop.schedule(5.0, lambda: order.append("middle"))
        loop.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_scheduling_order(self):
        loop = EventLoop()
        order = []
        for label in ("a", "b", "c"):
            loop.schedule(3.0, lambda lab=label: order.append(lab))
        loop.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_zero_delay_allowed(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.0, lambda: fired.append(True))
        loop.run_until_idle()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        loop = EventLoop()
        times = []

        def chain(depth):
            times.append(loop.now())
            if depth > 0:
                loop.schedule(2.0, lambda: chain(depth - 1))

        loop.schedule(1.0, lambda: chain(3))
        loop.run_until_idle()
        assert times == [1.0, 3.0, 5.0, 7.0]

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(10.0, lambda: fired.append(10))
        loop.run_until(5.0)
        assert fired == [1]
        assert loop.now() == 5.0
        loop.run_until_idle()
        assert fired == [1, 10]

    def test_run_until_advances_clock_even_with_no_events(self):
        loop = EventLoop()
        loop.run_until(42.0)
        assert loop.now() == 42.0

    def test_run_until_idle_guards_against_infinite_loops(self):
        loop = EventLoop()

        def respawn():
            loop.schedule(1.0, respawn)

        loop.schedule(1.0, respawn)
        with pytest.raises(RuntimeError):
            loop.run_until_idle(max_events=100)

    def test_run_until_idle_counts_events(self):
        loop = EventLoop()
        for _ in range(4):
            loop.schedule(1.0, lambda: None)
        assert loop.run_until_idle() == 4

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(7.5, lambda: fired.append(loop.now()))
        loop.run_until_idle()
        assert fired == [7.5]

    def test_schedule_at_past_rejected(self):
        loop = EventLoop()
        loop.run_until(10.0)
        with pytest.raises(ValueError):
            loop.schedule_at(5.0, lambda: None)
