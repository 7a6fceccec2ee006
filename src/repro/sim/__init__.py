"""Deterministic discrete-event simulation kernel and instrumentation."""

from repro.sim.kernel import (
    MS,
    SECOND,
    EventHandle,
    Process,
    Simulator,
    drain,
    format_time,
)
from repro.sim.random import SeededStream, StreamFactory, derive_seed
from repro.sim.tracing import LatencyStats, TracePoint, Tracer

__all__ = [
    "MS",
    "SECOND",
    "EventHandle",
    "Process",
    "Simulator",
    "drain",
    "format_time",
    "SeededStream",
    "StreamFactory",
    "derive_seed",
    "LatencyStats",
    "TracePoint",
    "Tracer",
]
