"""Unit tests for the discrete-event simulation kernel."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestOwnerTieRule:
    """Same-instant events run by (time, owner rank, owner-local count)."""

    def test_same_instant_events_run_in_rank_order(self):
        sim = Simulator()
        cpu_a, cpu_b = sim.owner(), sim.owner()
        order = []
        cpu_b.schedule(5, lambda: order.append("b"))
        cpu_a.schedule(5, lambda: order.append("a"))
        sim.schedule(5, lambda: order.append("shared"))
        sim.run()
        # The shared owner ranks before every CPU, CPUs by creation.
        assert order == ["shared", "a", "b"]

    def test_fifo_within_each_owner(self):
        sim = Simulator()
        cpu = sim.owner()
        order = []
        for n in range(3):
            cpu.schedule(5, lambda n=n: order.append(("cpu", n)))
            sim.schedule_at(5, lambda n=n: order.append(("shared", n)))
        sim.schedule_many(
            [(5, lambda n=n: order.append(("many", n))) for n in range(3)]
        )
        sim.run()
        assert order == (
            [("shared", n) for n in range(3)]
            + [("many", n) for n in range(3)]
            + [("cpu", n) for n in range(3)]
        )

    def test_event_queued_for_now_runs_after_the_event_that_queued_it(self):
        sim = Simulator()
        cpu_a, cpu_b = sim.owner(), sim.owner()
        order = []

        def on_b():
            order.append("b")
            # Keyed before cpu_b's own same-instant events, yet after b.
            sim.schedule(0, lambda: order.append("shared from b"))
            cpu_a.schedule(0, lambda: order.append("a from b"))
            cpu_b.schedule(0, lambda: order.append("b from b"))

        def on_shared():
            order.append("shared")
            cpu_a.schedule(0, lambda: order.append("a from shared"))

        cpu_b.schedule(5, on_b)
        cpu_b.schedule(5, lambda: order.append("b2"))
        sim.schedule(5, on_shared)
        sim.run()
        assert order == [
            "shared", "a from shared", "b",
            "shared from b", "a from b", "b2", "b from b",
        ]

    def test_schedule_count_keeps_the_place_of_its_count(self):
        sim = Simulator()
        cpu = sim.owner()
        order = []
        cpu.schedule(5, lambda: order.append("before"))
        skipped = cpu.count
        cpu.count += 1
        cpu.schedule(5, lambda: order.append("after"))
        cpu.schedule_count(5, skipped, lambda: order.append("resumed"))
        sim.run()
        assert order == ["before", "resumed", "after"]

    def test_passed_compares_keys_at_now(self):
        sim = Simulator()
        cpu, later = sim.owner(), sim.owner()
        seen = []
        sim.schedule(5, lambda: seen.append(
            (cpu.passed(5, 0), cpu.behind(5), cpu.passed(4, 7))
        ))
        handle = cpu.schedule(5, lambda: seen.append(
            (cpu.passed(5, 0), cpu.passed(5, 1), later.behind(5))
        ))
        later.schedule(5, lambda: seen.append((cpu.behind(5),)))
        assert cpu.count_of(handle) == 0
        assert not cpu.passed(0, 0)  # nothing has run yet
        sim.run_until(5)
        assert seen == [(False, False, True), (False, False, False), (True,)]
        # Once run_until returns, every key at now has been passed.
        assert cpu.passed(5, 1) and cpu.behind(5)
        assert not cpu.passed(6, 0)

    def test_bare_step_leaves_the_position_at_its_event(self):
        sim = Simulator()
        cpu = sim.owner()
        cpu.schedule(5, lambda: None)
        cpu.schedule(5, lambda: None)
        assert sim.step()
        assert cpu.passed(5, 0) is False  # the event running now
        assert sim.step()
        assert cpu.passed(5, 0) and not cpu.passed(5, 1)

    def test_schedule_count_behind_the_kernel_rejected(self):
        sim = Simulator()
        cpu = sim.owner()
        cpu.count += 1
        sim.run_until(10)
        with pytest.raises(SimTimeError):
            cpu.schedule_count(10, 0, lambda: None)
        with pytest.raises(SimTimeError):
            cpu.schedule_count(9, 0, lambda: None)
        cpu.schedule_count(11, 0, lambda: None)
        assert sim.run() == 1


#: A generated event: (owner index, time, same-owner children as
#: (delay, grandchild count)).  Owner 0 is the shared owner.
_events = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 6),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=2),
    ),
    max_size=25,
)


def _run_schedule(events, without=None) -> list:
    """Run ``events`` (minus owner ``without``'s); the (label, time) log."""
    sim = Simulator()
    owners = [sim] + [sim.owner() for __ in range(3)]
    log = []

    def fire(label, owner, children):
        log.append((label, sim.now))
        for k, (delay, grandchildren) in enumerate(children):
            owners[owner].schedule(delay, partial(
                fire, f"{label}.{k}", owner, [(1, 0)] * grandchildren,
            ))

    for n, (owner, time, children) in enumerate(events):
        if owner != without:
            owners[owner].schedule(time, partial(fire, n, owner, children))
    sim.run()
    return log


@settings(max_examples=300, deadline=None)
@given(events=_events, without=st.integers(1, 3))
def test_removing_one_cpu_owner_moves_no_other_event(events, without):
    full = _run_schedule(events)
    dropped = {n for n, (owner, __, __) in enumerate(events) if owner == without}
    expected = [
        entry for entry in full
        if int(str(entry[0]).split(".")[0]) not in dropped
    ]
    assert _run_schedule(events, without) == expected


class TestFormatTime:
    def test_microseconds(self):
        assert format_time(42) == "42us"

    def test_milliseconds(self):
        assert format_time(1500) == "1.500ms"

    def test_seconds(self):
        assert format_time(2_500_000) == "2.500s"
