"""Differential test: the parking scheduler against the ticking one.

``tests/os_reference.py`` holds the scheduler and alarm as they were
before idle periodic ticks were elided and idle CPUs parked.  Both
sides build the same generated scenario on their own
:class:`Simulator`, with real alarm ticks wired the way the RTE
generator wires them (an :class:`Activation` here, the CPU's owner
handle there, so both key their events alike), and must agree on:

* the timestamped action log, including counter reads made inside
  events;
* every counter, read between ``run_for`` chunks and at the end;
* every alarm's expirations;
* the multiset of published ``os`` events.

A scenario has 1-3 CPUs with 1-4 tasks each, at random (often equal)
priorities and preemptability.  Periodic ticks have random periods,
offsets and durations, often harmonic (multiples of one base period)
and short, so the CPU can park; sometimes every CPU ticks in lockstep
(equal periods and offsets).  Most ticks carry a ``noop`` predicate
backed by a test inbox, the way a PIRTE's ticks read its input
buffers.  Stimuli land at random times, exact tick instants and the
completion instants of idle ticks, including ticks queued behind
another tick of the same instant; some scenarios leave idle stretches
of many periods between them.  A stimulus either *delivers* (appends to
an inbox and activates a data item, like an RTE delivery), *posts*
(appends and wakes only, like the ECM's inboxes), activates a
*foreign* item on any task (which may preempt an in-flight tick),
*reads* counters, *cancels* one of the CPU's alarms or *rearms* it
with a new offset.  Some stimuli are scheduled from an earlier event,
so their keys interleave with the ticks' own.
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autosar.os import Activation, Alarm, Cpu, Task, WorkItem
from repro.sim import Simulator
from repro.telemetry.bus import TelemetryBus
from tests import os_reference

KINDS = ("deliver", "post", "foreign", "read", "read", "cancel", "rearm")


def make_ticks(rng: random.Random, tasks: int, inboxes: int) -> list:
    """1-3 periodic ticks: ``(period, offset, duration, task, inbox)``."""
    harmonic = rng.random() < 0.7
    base = rng.randint(2, 12)
    ticks = []
    for __ in range(rng.randint(1, 3)):
        if harmonic:
            period = base * rng.choice((1, 1, 2, 3, 5))
            duration = rng.choice((0, 1, rng.randint(1, max(1, base // 3))))
        else:
            period = rng.randint(2, 20)
            duration = rng.choice((0, 1, rng.randint(1, 8)))
        offset = rng.randint(0, period)
        if harmonic and rng.random() < 0.5:
            offset = period
        inbox = rng.randrange(inboxes) if rng.random() < 0.85 else None
        ticks.append((period, offset, duration, rng.randrange(tasks), inbox))
    return ticks


def make_scenario(rng: random.Random) -> dict:
    horizon = rng.randint(40, 300)
    if rng.random() < 0.3:
        horizon *= rng.randint(2, 8)  # idle stretches of many periods
    lockstep = rng.random() < 0.25
    cpus = []
    instants = []
    for c in range(rng.randint(1, 3)):
        tasks = [
            (rng.randint(1, 3), rng.random() < 0.7, rng.choice((1, 1, 4)))
            for __ in range(rng.randint(1, 4))
        ]
        inboxes = rng.randint(1, 2)
        if lockstep and c:
            tasks = cpus[0][0]
            inboxes, ticks = cpus[0][1], cpus[0][2]
        else:
            ticks = make_ticks(rng, len(tasks), inboxes)
        for period, offset, duration, __, __ in ticks:
            for start in range(offset, horizon + 1, period):
                instants += [start + duration * k for k in range(4)]
        cpus.append((tasks, inboxes, ticks))
    stimuli = []
    for __ in range(rng.randint(0, 30)):
        cpu = rng.randrange(len(cpus))
        tasks, inboxes, ticks = cpus[cpu]
        time = (
            rng.choice(instants) if instants and rng.random() < 0.6
            else rng.randint(0, horizon)
        )
        lead = rng.choice((0, 0, rng.randint(1, 12)))
        stimuli.append((
            min(time, horizon), min(lead, time), rng.choice(KINDS), cpu,
            rng.randrange(len(tasks)), rng.randrange(inboxes),
            rng.randint(0, 8), rng.randrange(len(ticks)),
        ))
    cuts = sorted(rng.sample(range(1, horizon), rng.randint(0, 6)))
    chunks = [b - a for a, b in zip([0] + cuts, cuts + [horizon])]
    return {"cpus": cpus, "stimuli": stimuli, "chunks": chunks}


def _is_empty(box: list) -> bool:
    return not box


class World:
    """One side of the comparison: a simulator, its CPUs and a log."""

    def __init__(self, scenario: dict, reference: bool) -> None:
        cpu_cls, task_cls = (
            (os_reference.Cpu, os_reference.Task) if reference else (Cpu, Task)
        )
        self.reference = reference
        self.sim = sim = Simulator()
        self.bus = TelemetryBus(default_capacity=1_000_000)
        self.log: list[tuple] = []
        self.cpus = []
        self.tasks = []
        self.inboxes = []
        self.alarms = []
        #: (cpu, tick) -> the tick's alarm and period.
        self.ticks: dict[tuple[int, int], tuple] = {}
        #: Chunk boundaries at which some CPU was parked.
        self.parked_seen = 0
        for c, (tasks, inboxes, ticks) in enumerate(scenario["cpus"]):
            cpu = cpu_cls(sim, f"cpu{c}", self.bus)
            self.cpus.append(cpu)
            self.tasks.append([
                cpu.add_task(task_cls(f"t{j}", prio, preemptable, limit))
                for j, (prio, preemptable, limit) in enumerate(tasks)
            ])
            self.inboxes.append([[] for __ in range(inboxes)])
            for k, (period, offset, duration, task, inbox) in enumerate(ticks):
                label = f"cpu{c}.tick{k}"
                if inbox is None:
                    item = WorkItem(label, duration, partial(self.mark, label))
                else:
                    box = self.inboxes[c][inbox]
                    item = WorkItem(
                        label, duration, partial(self.drain, label, box),
                        noop=partial(_is_empty, box),
                    )
                if reference:
                    alarm = os_reference.Alarm(
                        cpu.events, label,
                        partial(cpu.activate, self.tasks[c][task], item),
                    )
                else:
                    alarm = Alarm(
                        sim, label, Activation(self.tasks[c][task], item)
                    )
                alarm.set_relative(offset, period)
                self.alarms.append(alarm)
                self.ticks[c, k] = (alarm, period)
        for n, (time, lead, *stimulus) in enumerate(scenario["stimuli"]):
            fire = partial(self.stimulate, n, *stimulus)
            if lead:
                sim.schedule_at(
                    time - lead, partial(sim.schedule, lead, fire)
                )
            else:
                sim.schedule_at(time, fire)

    def mark(self, label: str) -> None:
        self.log.append((self.sim.now, label))

    def drain(self, label: str, box: list) -> None:
        if box:
            self.log.append((self.sim.now, label, tuple(box)))
            box.clear()

    def stimulate(self, n, kind, c, task, inbox, duration, tick) -> None:
        cpu, box = self.cpus[c], self.inboxes[c][inbox]
        label = f"s{n}"
        alarm, period = self.ticks[c, tick]
        if kind == "deliver":
            box.append(n)
            cpu.activate(
                self.tasks[c][task],
                WorkItem(label, duration, partial(self.drain, label, box)),
            )
        elif kind == "post":
            if not self.reference:
                cpu.wake()
            box.append(n)
        elif kind == "foreign":
            cpu.activate(
                self.tasks[c][task],
                WorkItem(label, duration, partial(self.mark, label)),
            )
        elif kind == "cancel":
            alarm.cancel()
        elif kind == "rearm":
            if not alarm.armed:
                alarm.set_relative(duration, period)
        else:
            self.log.append((self.sim.now, label, self.counters(c)))

    def counters(self, c: int) -> tuple:
        cpu = self.cpus[c]
        return (
            cpu.busy_time, cpu.dispatches, cpu.preemptions,
            cpu.utilization(),
            tuple(
                (
                    t.activation_count, t.completed_items,
                    t.dropped_activations, t.response_count,
                    t.response_total_us, t.response_worst_us, t.state,
                )
                for t in self.tasks[c]
            ),
        )

    def run(self, chunks: list[int]) -> None:
        for chunk in chunks:
            self.sim.run_for(chunk)
            if not self.reference and any(
                cpu._parked is not None for cpu in self.cpus
            ):
                self.parked_seen += 1
            # Utilization first: it must settle on its own.
            self.log.append((
                "chunk", self.sim.now,
                tuple(cpu.utilization() for cpu in self.cpus),
                tuple(self.counters(c) for c in range(len(self.cpus))),
            ))

    def os_events(self) -> list[tuple]:
        return sorted(
            (e.time_us, e.name, tuple(sorted(e.data.items())))
            for e in self.bus.events("os")
        )


def _compare(scenario: dict) -> None:
    worlds = [World(scenario, reference) for reference in (True, False)]
    for world in worlds:
        world.run(scenario["chunks"])
    reference, parking = worlds
    assert parking.log == reference.log
    assert [a.expirations for a in parking.alarms] == [
        a.expirations for a in reference.alarms
    ]
    assert parking.bus.published("os") == reference.bus.published("os")
    assert parking.os_events() == reference.os_events()


@settings(max_examples=400, deadline=None)
@given(rng=st.randoms(use_true_random=True))
def test_eliding_scheduler_matches_reference(rng):
    _compare(make_scenario(rng))


def test_scenarios_elide_ticks():
    """The generated scenarios park CPUs and elide ticks, not only tick."""
    rng = random.Random(16)
    reference_events = parking_events = parked = 0
    for __ in range(50):
        scenario = make_scenario(rng)
        for reference in (True, False):
            world = World(scenario, reference)
            world.run(scenario["chunks"])
            if reference:
                reference_events += world.sim.events_executed
            else:
                parking_events += world.sim.events_executed
                parked += world.parked_seen > 0
    assert parked >= 25
    assert parking_events < 0.75 * reference_events
