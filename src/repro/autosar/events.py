"""RTE events: the triggers that activate runnables.

AUTOSAR binds runnables to events; the RTE generator turns these
declarations into OS alarms (timing events) and delivery hooks
(data-received events).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RteEvent:
    """Base event: names the runnable it triggers."""

    runnable: str

    def __post_init__(self) -> None:
        if not self.runnable:
            raise ConfigurationError("event must name a runnable")


@dataclass(frozen=True)
class TimingEvent(RteEvent):
    """Periodic activation with an optional phase offset."""

    period_us: int = 10_000
    offset_us: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_us <= 0:
            raise ConfigurationError(
                f"timing event on {self.runnable} needs a positive period"
            )
        if self.offset_us < 0:
            raise ConfigurationError(
                f"timing event on {self.runnable} has a negative offset"
            )


@dataclass(frozen=True)
class DataReceivedEvent(RteEvent):
    """Activation when data arrives on a required port element."""

    port: str = ""
    element: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.port or not self.element:
            raise ConfigurationError(
                f"data-received event on {self.runnable} must name "
                f"port and element"
            )


@dataclass(frozen=True)
class InitEvent(RteEvent):
    """Activation once at ECU start-up, before any other event."""


__all__ = [
    "RteEvent",
    "TimingEvent",
    "DataReceivedEvent",
    "InitEvent",
]
