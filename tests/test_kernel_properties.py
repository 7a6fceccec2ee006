"""Property and regression tests for the event-kernel hot path.

The kernel's heap holds ``(time, seq)`` tuples with lazy tombstone
cancellation.  These tests pin the invariants that design must keep
(same-instant FIFO, bounded tombstones, inclusive ``run_until``) and two
bugs it must stay clear of: cancel leaking heap entries forever, and
bool accepted as a delay.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimTimeError
from repro.sim.kernel import Simulator


class TestSameInstantFifo:
    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ties_fire_in_scheduling_order(self, delays):
        """Events at one instant run in the order they were scheduled,
        regardless of how they interleave with other instants."""
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, lambda i=index: fired.append(i))
        sim.run()
        expected = [
            index
            for __, index in sorted(
                (delay, index) for index, delay in enumerate(delays)
            )
        ]
        assert fired == expected

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_schedule_many_equals_schedule_loop(self, delays):
        """schedule_many is event-for-event identical to a schedule loop
        — the replay-determinism contract of the batch API."""
        loop_sim, batch_sim = Simulator(), Simulator()
        loop_fired, batch_fired = [], []
        for index, delay in enumerate(delays):
            loop_sim.schedule(delay, lambda i=index: loop_fired.append(i))
        batch_sim.schedule_many(
            (delay, lambda i=index: batch_fired.append(i))
            for index, delay in enumerate(delays)
        )
        loop_sim.run()
        batch_sim.run()
        assert batch_fired == loop_fired


class TestCancelInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["schedule", "cancel", "step"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pending_bookkeeping(self, ops):
        """is_pending/pending_count stay consistent through arbitrary
        schedule/cancel/step interleavings; cancelled events never run."""
        sim = Simulator()
        handles = []
        live = {}
        fired = set()
        for op, arg in ops:
            if op == "schedule":
                handle = sim.schedule(
                    arg, lambda h=len(handles): fired.add(h)
                )
                live[len(handles)] = handle
                handles.append(handle)
            elif op == "cancel" and handles:
                index = arg % len(handles)
                handle = handles[index]
                cancelled = sim.cancel(handle)
                assert cancelled == (index in live)
                live.pop(index, None)
                assert not sim.is_pending(handle)
            elif op == "step":
                sim.step()
                for index in list(live):
                    if index in fired:
                        del live[index]
            assert sim.pending_count() == len(live)
            for index, handle in live.items():
                assert sim.is_pending(handle)
        sim.run()
        cancelled_indices = {
            index for index in range(len(handles)) if index not in fired
        }
        for index in cancelled_indices:
            assert not sim.is_pending(handles[index])

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert sim.cancel(handle)
        assert not sim.cancel(handle)
        assert sim.pending_count() == 0

    def test_schedule_cancel_churn_bounds_the_heap(self):
        """Regression: cancel used to leave entries in the heap forever,
        so a timer-rearm loop (the campaign engine's wave timer) grew
        the queue without bound.  Compaction must keep the physical
        heap within a constant factor of the live event count."""
        sim = Simulator()
        sim.schedule(10_000_000, lambda: None)  # keep the sim alive
        for __ in range(10_000):
            handle = sim.schedule(1000, lambda: None)
            sim.cancel(handle)
        assert sim.pending_count() == 1
        # 10k cancelled timers must not leave 10k tombstones behind.
        assert sim.queue_size() <= 2 * sim.pending_count() + 128

    def test_interleaved_churn_under_load(self):
        """Same bound while live events coexist with heavy churn."""
        sim = Simulator()
        for index in range(100):
            sim.schedule(1_000_000 + index, lambda: None)
        for __ in range(5_000):
            sim.cancel(sim.schedule(500, lambda: None))
        assert sim.pending_count() == 100
        assert sim.queue_size() <= 2 * sim.pending_count() + 128


class TestDelayValidation:
    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_delay_rejected(self, bad):
        """bool passes isinstance(x, int) but is always a bug as a time;
        a guard that returns True must not become a 1us timer."""
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_rejected_everywhere(self, bad):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule_at(bad, lambda: None)
        with pytest.raises(SimTimeError):
            sim.schedule_many([(bad, lambda: None)])

    def test_float_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule(1.5, lambda: None)


class TestRunUntilBoundary:
    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=30
        ),
        boundary=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_boundary_inclusive_and_clock_advances(self, delays, boundary):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        executed = sim.run_until(boundary)
        assert executed == sum(1 for delay in delays if delay <= boundary)
        assert fired == sorted(d for d in delays if d <= boundary)
        assert sim.now == boundary
        remaining = sim.run()
        assert executed + remaining == len(delays)

    def test_tombstones_do_not_spend_the_budget(self):
        """run_until and run agree: skipping a cancelled event is
        bookkeeping, not simulation progress, in both."""
        sim = Simulator()
        for __ in range(10):
            sim.cancel(sim.schedule(5, lambda: None))
        fired = []
        sim.schedule(5, lambda: fired.append(True))
        assert sim.run_until(10, max_events=1) == 1
        assert fired == [True]

        sim2 = Simulator()
        for __ in range(10):
            sim2.cancel(sim2.schedule(5, lambda: None))
        sim2.schedule(5, lambda: None)
        # One live event, ten tombstones: a budget of 2 suffices (one
        # step to execute, one to observe the drain).
        assert sim2.run(max_events=2) == 1

    def test_run_until_into_the_past_rejected(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SimTimeError):
            sim.run_until(50)
