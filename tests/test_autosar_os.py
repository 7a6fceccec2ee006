"""Unit tests for the OSEK-style OS: tasks, scheduler, alarms."""

import pytest

from repro.autosar.os import Alarm, AlarmManager, Cpu, Task, TaskState, WorkItem
from repro.errors import OsekError
from repro.sim import MS, Simulator


def make_cpu():
    sim = Simulator()
    return sim, Cpu(sim)


class TestTask:
    def test_invalid_construction(self):
        with pytest.raises(OsekError):
            Task("", 1)
        with pytest.raises(OsekError):
            Task("t", 1, max_activations=0)

    def test_negative_work_item_rejected(self):
        with pytest.raises(OsekError):
            WorkItem("w", -5)

    def test_next_item_empty_raises(self):
        with pytest.raises(OsekError):
            Task("t", 1).next_item()


class TestCpuBasics:
    def test_work_item_action_runs_at_completion_time(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        done = []
        cpu.activate(task, WorkItem("job", 100, lambda: done.append(sim.now)))
        sim.run()
        assert done == [100]

    def test_sequential_items_on_one_task(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        done = []
        cpu.activate(task, WorkItem("a", 100, lambda: done.append(("a", sim.now))))
        cpu.activate(task, WorkItem("b", 50, lambda: done.append(("b", sim.now))))
        sim.run()
        assert done == [("a", 100), ("b", 150)]

    def test_higher_priority_runs_first_when_queued(self):
        sim, cpu = make_cpu()
        low = cpu.add_task(Task("low", 1, preemptable=True))
        high = cpu.add_task(Task("high", 10))
        done = []
        # Activate both before any time passes: low first, but high must
        # preempt it immediately.
        cpu.activate(low, WorkItem("l", 100, lambda: done.append(("l", sim.now))))
        cpu.activate(high, WorkItem("h", 10, lambda: done.append(("h", sim.now))))
        sim.run()
        assert done[0][0] == "h"
        assert done == [("h", 10), ("l", 110)]

    def test_preemption_preserves_remaining_time(self):
        sim, cpu = make_cpu()
        low = cpu.add_task(Task("low", 1))
        high = cpu.add_task(Task("high", 10))
        done = []
        cpu.activate(low, WorkItem("l", 100, lambda: done.append(("l", sim.now))))
        sim.schedule(40, lambda: cpu.activate(
            high, WorkItem("h", 20, lambda: done.append(("h", sim.now)))
        ))
        sim.run()
        # low ran 40us, preempted for 20us, then finishes its last 60us.
        assert done == [("h", 60), ("l", 120)]
        assert cpu.preemptions == 1

    def test_non_preemptable_task_blocks_higher_priority(self):
        sim, cpu = make_cpu()
        low = cpu.add_task(Task("low", 1, preemptable=False))
        high = cpu.add_task(Task("high", 10))
        done = []
        cpu.activate(low, WorkItem("l", 100, lambda: done.append(("l", sim.now))))
        sim.schedule(40, lambda: cpu.activate(
            high, WorkItem("h", 20, lambda: done.append(("h", sim.now)))
        ))
        sim.run()
        assert done == [("l", 100), ("h", 120)]
        assert cpu.preemptions == 0

    def test_equal_priority_no_preemption(self):
        sim, cpu = make_cpu()
        a = cpu.add_task(Task("a", 5))
        b = cpu.add_task(Task("b", 5))
        done = []
        cpu.activate(a, WorkItem("a", 100, lambda: done.append("a")))
        sim.schedule(10, lambda: cpu.activate(
            b, WorkItem("b", 10, lambda: done.append("b"))
        ))
        sim.run()
        assert done == ["a", "b"]

    def test_duplicate_task_rejected(self):
        __, cpu = make_cpu()
        cpu.add_task(Task("t", 1))
        with pytest.raises(OsekError):
            cpu.add_task(Task("t", 2))

    def test_activate_unregistered_task_rejected(self):
        __, cpu = make_cpu()
        with pytest.raises(OsekError):
            cpu.activate(Task("ghost", 1), WorkItem("w", 10))

    def test_task_state_transitions(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        assert task.state is TaskState.SUSPENDED
        cpu.activate(task, WorkItem("w", 100))
        assert task.state is TaskState.RUNNING
        sim.run()
        assert task.state is TaskState.SUSPENDED

    def test_response_time_accounting(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        cpu.activate(task, WorkItem("a", 100))
        cpu.activate(task, WorkItem("b", 100))
        sim.run()
        assert task.response_count == 2
        assert task.response_total_us == 300
        assert task.response_worst_us == 200

    def test_utilization(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        cpu.activate(task, WorkItem("w", 100))
        sim.run_until(200)
        assert cpu.utilization() == pytest.approx(0.5)

    def test_zero_duration_item(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5))
        done = []
        cpu.activate(task, WorkItem("w", 0, lambda: done.append(sim.now)))
        sim.run()
        assert done == [0]

    def test_activation_queue_limit_drops(self):
        sim, cpu = make_cpu()
        task = cpu.add_task(Task("t", 5, max_activations=1))
        accepted = sum(
            cpu.activate(task, WorkItem(f"w{i}", 10)) for i in range(40)
        )
        assert accepted < 40
        assert task.dropped_activations == 40 - accepted


class TestJitterScenario:
    def test_high_priority_periodic_unaffected_by_low_load(self):
        """The scheduling half of the paper's isolation claim."""
        sim, cpu = make_cpu()
        control = cpu.add_task(Task("control", 10))
        besteffort = cpu.add_task(Task("plugin", 1))
        completions = []

        def activate_control():
            cpu.activate(
                control,
                WorkItem("ctrl", 200, lambda: completions.append(sim.now)),
            )

        for k in range(20):
            sim.schedule(k * 5 * MS, activate_control)
        # Saturate the CPU with best-effort work.
        for __ in range(200):
            cpu.activate(besteffort, WorkItem("junk", 1 * MS))
        sim.run_until(100 * MS)
        # Every control completion lands exactly 200us after activation.
        for k, t in enumerate(completions):
            assert t == k * 5 * MS + 200


class TestAlarms:
    def test_one_shot_alarm(self):
        sim = Simulator()
        fired = []
        alarm = Alarm(sim, "a", lambda: fired.append(sim.now))
        alarm.set_relative(500)
        sim.run()
        assert fired == [500]
        assert not alarm.armed

    def test_cyclic_alarm(self):
        sim = Simulator()
        fired = []
        alarm = Alarm(sim, "a", lambda: fired.append(sim.now))
        alarm.set_relative(100, cycle_us=200)
        sim.run_until(700)
        assert fired == [100, 300, 500, 700]

    def test_cancel_stops_alarm(self):
        sim = Simulator()
        fired = []
        alarm = Alarm(sim, "a", lambda: fired.append(sim.now))
        alarm.set_relative(100, cycle_us=100)
        sim.run_until(250)
        alarm.cancel()
        sim.run_until(1000)
        assert fired == [100, 200]

    def test_double_arm_rejected(self):
        sim = Simulator()
        alarm = Alarm(sim, "a", lambda: None)
        alarm.set_relative(100)
        with pytest.raises(OsekError):
            alarm.set_relative(200)

    def test_rearm_after_cancel(self):
        sim = Simulator()
        fired = []
        alarm = Alarm(sim, "a", lambda: fired.append(sim.now))
        alarm.set_relative(100)
        alarm.cancel()
        alarm.set_relative(300)
        sim.run()
        assert fired == [300]

    def test_negative_offset_rejected(self):
        alarm = Alarm(Simulator(), "a", lambda: None)
        with pytest.raises(OsekError):
            alarm.set_relative(-1)

    def test_manager_registry(self):
        sim = Simulator()
        manager = AlarmManager(sim)
        manager.create("x", lambda: None)
        assert manager.alarm("x").name == "x"
        with pytest.raises(OsekError):
            manager.create("x", lambda: None)
        with pytest.raises(OsekError):
            manager.alarm("y")

    def test_manager_cancel_all(self):
        sim = Simulator()
        manager = AlarmManager(sim)
        fired = []
        for i in range(3):
            manager.create(f"a{i}", lambda: fired.append(1)).set_relative(100)
        manager.cancel_all()
        sim.run()
        assert fired == []
