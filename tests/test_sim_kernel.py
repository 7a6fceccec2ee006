"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimTimeError
from repro.sim import SECOND, Simulator, format_time


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(150, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [150]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(300, lambda: order.append("c"))
        sim.schedule(100, lambda: order.append("a"))
        sim.schedule(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(50, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_event_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimTimeError):
            Simulator().schedule(-1, lambda: None)

    def test_float_delay_rejected(self):
        with pytest.raises(SimTimeError):
            Simulator().schedule(1.5, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(500, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [500]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimTimeError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(25, lambda: times.append(sim.now))

        sim.schedule(100, outer)
        sim.run()
        assert times == [100, 125]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        assert sim.run() == 7

    def test_run_guard_against_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(SimTimeError):
            sim.run(max_events=100)


class TestCancellation:
    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(100, lambda: fired.append(True))
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == []

    def test_cancel_twice_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_is_pending(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert sim.is_pending(handle)
        sim.run()
        assert not sim.is_pending(handle)

    def test_pending_count_tracks_cancellations(self):
        sim = Simulator()
        h1 = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_count() == 2
        sim.cancel(h1)
        assert sim.pending_count() == 1


class TestRunUntil:
    def test_run_until_executes_due_events_only(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append("a"))
        sim.schedule(200, lambda: fired.append("b"))
        sim.run_until(150)
        assert fired == ["a"]
        assert sim.now == 150

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append("a"))
        sim.run_until(100)
        assert fired == ["a"]

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run_until(5 * SECOND)
        assert sim.now == 5 * SECOND

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SimTimeError):
            sim.run_until(50)

    def test_run_for_relative(self):
        sim = Simulator()
        sim.run_until(100)
        sim.run_for(250)
        assert sim.now == 350


class TestReservedSequenceNumbers:
    def test_reserved_event_keeps_its_place_among_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(5, lambda: order.append("before"))
        seq = sim.reserve()
        sim.schedule(5, lambda: order.append("after"))
        sim.schedule_reserved(seq, 5, lambda: order.append("reserved"))
        sim.run()
        assert order == ["before", "reserved", "after"]

    def test_passed_compares_sequence_numbers_at_now(self):
        sim = Simulator()
        seen = []
        early = sim.reserve()
        sim.schedule(5, lambda: seen.append(
            (sim.passed(5, early), sim.passed(5, late), sim.passed(4, late))
        ))
        late = sim.reserve()
        assert not sim.passed(0, early)  # nothing has run yet
        sim.run_until(5)
        assert seen == [(True, False, True)]
        # Once run_until returns, every key at now has been passed.
        assert sim.passed(5, late)
        assert not sim.passed(6, early)

    def test_bare_step_leaves_the_position_at_its_event(self):
        sim = Simulator()
        first = sim.schedule(5, lambda: None)
        between = sim.reserve()
        sim.schedule(5, lambda: None)
        assert sim.step()
        assert sim.passed(5, first.seq - 1)
        assert not sim.passed(5, between)

    def test_reserved_event_behind_the_kernel_rejected(self):
        sim = Simulator()
        seq = sim.reserve()
        sim.run_until(10)
        with pytest.raises(SimTimeError):
            sim.schedule_reserved(seq, 10, lambda: None)
        with pytest.raises(SimTimeError):
            sim.schedule_reserved(seq, 9, lambda: None)
        sim.schedule_reserved(seq, 11, lambda: None)
        assert sim.run() == 1


class TestFormatTime:
    def test_microseconds(self):
        assert format_time(42) == "42us"

    def test_milliseconds(self):
        assert format_time(1500) == "1.500ms"

    def test_seconds(self):
        assert format_time(2_500_000) == "2.500s"
