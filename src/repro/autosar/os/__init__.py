"""OSEK-style operating system layer: tasks, scheduler, alarms."""

from repro.autosar.os.alarm import Alarm, AlarmManager
from repro.autosar.os.scheduler import Cpu
from repro.autosar.os.task import Activation, Task, TaskState, WorkItem

__all__ = [
    "Activation",
    "Alarm",
    "AlarmManager",
    "Cpu",
    "Task",
    "TaskState",
    "WorkItem",
]
