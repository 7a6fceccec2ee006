"""Runnable entities: the schedulable units inside an SW-C.

A runnable couples a Python callable (the behaviour) with a declared
execution time, which the OSEK-style scheduler uses to model CPU
occupancy and preemption.  The callable receives the owning component
instance, through which it reaches its ports and the RTE API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.autosar.swc import ComponentInstance


#: Signature of a runnable body: receives the owning component instance.
RunnableBody = Callable[["ComponentInstance"], None]


@dataclass
class Runnable:
    """One runnable entity of a component type.

    ``execution_time_us`` is the nominal CPU time one activation
    consumes; the scheduler charges this to the mapped task.  A runnable
    may be re-entrant in AUTOSAR; here each activation runs to completion
    within its task, so no concurrency control is needed.

    ``noop`` is an optional predicate for periodic runnables: true when
    running the body on ``instance`` now would change nothing.  The
    generator attaches it to the runnable's timing-event work item, so
    a CPU whose periodic items are all idle can park: it queues no
    tick until the next touch.  Whatever changes the state it reads
    must first call ``Cpu.wake`` on the instance's CPU, or arrive as an
    activation (see :mod:`repro.autosar.os.scheduler`).
    """

    name: str
    body: Optional[RunnableBody] = None
    execution_time_us: int = 50
    noop: Optional[Callable[["ComponentInstance"], bool]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("runnable needs a non-empty name")
        if self.execution_time_us < 0:
            raise ConfigurationError(
                f"runnable {self.name} has negative execution time"
            )

    def run(self, instance: "ComponentInstance") -> None:
        """Execute the behaviour once (invoked by the scheduler)."""
        if self.body is not None:
            self.body(instance)

    def __repr__(self) -> str:
        return f"<Runnable {self.name} {self.execution_time_us}us>"


__all__ = ["Runnable", "RunnableBody"]
