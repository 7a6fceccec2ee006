"""Deterministic discrete-event simulation kernel."""

from repro.sim.kernel import (
    MS,
    SECOND,
    EventHandle,
    Simulator,
    format_time,
)
from repro.sim.random import SeededStream, StreamFactory, derive_seed

__all__ = [
    "MS",
    "SECOND",
    "EventHandle",
    "Simulator",
    "format_time",
    "SeededStream",
    "StreamFactory",
    "derive_seed",
]
