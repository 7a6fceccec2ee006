"""Metrics registry: counters, gauges, and windowed quantile histograms.

Three instrument kinds cover what the fleet experiments need:

* :class:`Counter` — monotonically increasing totals (installs pushed,
  events published).
* :class:`Gauge` — latest-value readings (outbox bytes, connected VINs).
* :class:`WindowedHistogram` — bounded observation series with
  deterministic nearest-rank quantiles.  Bounded two ways: by sample
  count (a ring of the most recent ``max_samples``) and optionally by
  simulated-time window (``window_us``), so a long campaign's metrics
  cost stays flat no matter how long it runs.

Everything here is clock-free and allocation-light; observations carry
their own (simulated) timestamps.  ``snapshot()`` output is
deterministic — sorted keys, no floats derived from iteration order —
so it can be embedded into campaign reports compared byte-for-byte by
the replay tests.
"""

from __future__ import annotations

import statistics
from collections import deque
from typing import Any, Deque, Iterable, Iterator, Optional

#: Default bound on retained histogram observations.
DEFAULT_MAX_SAMPLES = 256


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


class Counter:
    """A named monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        self.value += amount


class Gauge:
    """A named latest-value reading (None until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class WindowedHistogram:
    """Bounded observation series with nearest-rank quantiles.

    Keeps at most ``max_samples`` recent ``(time_us, value)`` pairs;
    with ``window_us`` set, observations older than ``now - window_us``
    are pruned on access.  ``observed`` counts every observation ever
    made, retained or not.
    """

    def __init__(
        self,
        name: str,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        window_us: Optional[int] = None,
    ) -> None:
        if max_samples <= 0:
            raise ValueError(
                f"histogram {name}: max_samples must be positive "
                f"(got {max_samples})"
            )
        if window_us is not None and window_us <= 0:
            raise ValueError(
                f"histogram {name}: window_us must be positive "
                f"(got {window_us})"
            )
        self.name = name
        self.max_samples = max_samples
        self.window_us = window_us
        self.observed = 0
        self._points: Deque[tuple[int, float]] = deque(maxlen=max_samples)

    def observe(self, value: float, time_us: int = 0) -> None:
        self.observed += 1
        self._points.append((time_us, value))
        self._prune(time_us)

    def _prune(self, now_us: Optional[int]) -> None:
        if self.window_us is None or now_us is None:
            return
        horizon = now_us - self.window_us
        while self._points and self._points[0][0] < horizon:
            self._points.popleft()

    def values(self, now_us: Optional[int] = None) -> list[float]:
        """Retained observations (optionally pruned against ``now_us``)."""
        self._prune(now_us)
        return [value for _, value in self._points]

    @property
    def count(self) -> int:
        """Currently retained observations."""
        return len(self._points)

    def quantile(self, q: float, now_us: Optional[int] = None) -> Optional[float]:
        """Deterministic nearest-rank quantile; None on empty window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q})")
        data = sorted(self.values(now_us))
        if not data:
            return None
        index = min(len(data) - 1, int(round(q * (len(data) - 1))))
        return data[index]

    def mean(self, now_us: Optional[int] = None) -> Optional[float]:
        data = self.values(now_us)
        return statistics.fmean(data) if data else None

    def summary(self, now_us: Optional[int] = None) -> dict:
        """Deterministic stats dict over the current window."""
        data = self.values(now_us)
        out = {"count": len(data), "observed": self.observed}
        if data:
            out.update(summarize(data))
        return out


class MetricsRegistry:
    """Get-or-create registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, WindowedHistogram] = {}

    # -- instrument access -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self,
        name: str,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        window_us: Optional[int] = None,
    ) -> WindowedHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = WindowedHistogram(name, max_samples, window_us)
            self._histograms[name] = instrument
        return instrument

    # -- convenience recording -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float, time_us: int = 0) -> None:
        """Record one observation into the histogram ``name``."""
        self.histogram(name).observe(value, time_us)

    # -- convenience reading ---------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Counter total (0 when never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def gauge_value(self, name: str) -> Optional[float]:
        """Latest gauge value, or None."""
        instrument = self._gauges.get(name)
        return instrument.value if instrument is not None else None

    def samples(self, name: str) -> list[float]:
        """Retained histogram observations under ``name``."""
        instrument = self._histograms.get(name)
        return instrument.values() if instrument is not None else []

    # -- rendering -------------------------------------------------------------

    def summary(self, now_us: Optional[int] = None) -> dict[str, Any]:
        """Flat deterministic dict: counters, gauges, histogram stats.

        Histogram ``name`` contributes ``name.count`` / ``name.mean`` /
        ``name.p95`` keys.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            value = self._gauges[name].value
            if value is not None:
                out[name] = value
        for name in sorted(self._histograms):
            stats = self._histograms[name].summary(now_us)
            if stats["count"]:
                out[f"{name}.count"] = stats["count"]
                out[f"{name}.mean"] = stats["mean"]
                out[f"{name}.p95"] = stats["p95"]
        return out

    def snapshot(self, now_us: Optional[int] = None) -> dict:
        """Nested deterministic rendering, JSON-ready."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary(now_us)
                for name in sorted(self._histograms)
            },
        }

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(self.summary().items())


__all__ = [
    "DEFAULT_MAX_SAMPLES",
    "summarize",
    "Counter",
    "Gauge",
    "WindowedHistogram",
    "MetricsRegistry",
]
