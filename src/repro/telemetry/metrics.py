"""Metrics registry: counters and gauges.

Two instrument kinds cover what the gateway reports live:

* counters — monotonically increasing totals (requests served,
  commands pumped, stream fan-out);
* gauges — latest-value readings (pump queue depth, stream clients).

``snapshot()`` output is deterministic — sorted keys — and JSON-ready.
:func:`summarize` condenses a sample into nearest-rank statistics.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Optional


def summarize(samples: Iterable[float]) -> dict:
    """Nearest-rank ``count``/``min``/``mean``/``p50``/``p95``/``max``.

    Raises ValueError on an empty sample.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("cannot summarise an empty sample")
    last = len(data) - 1
    return {
        "count": len(data),
        "min": data[0],
        "mean": statistics.fmean(data),
        "p50": data[round(0.5 * last)],
        "p95": data[round(0.95 * last)],
        "max": data[-1],
    }


class MetricsRegistry:
    """Named counters and gauges, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name``."""
        if amount < 0:
            raise ValueError(f"counter {name}: cannot add {amount}")
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        self._gauges[name] = value

    def counter_value(self, name: str) -> int:
        """Counter total (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        """Latest gauge value, or None."""
        return self._gauges.get(name)

    def snapshot(self) -> dict:
        """Nested deterministic rendering, JSON-ready."""
        return {
            "counters": {
                name: self._counters[name] for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name] for name in sorted(self._gauges)
            },
        }


__all__ = ["summarize", "MetricsRegistry"]
