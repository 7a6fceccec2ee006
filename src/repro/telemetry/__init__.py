"""Fleet observability: bounded event pipeline, metrics, soak gates.

The NIKA observing-campaign experience applies directly to fleet OTA:
promotion decisions must be gated on continuously monitored telemetry
against per-run baselines, not just on "did the command succeed".  This
package provides the three pieces:

* :class:`TelemetryBus` — a bounded, per-category ring-buffer event
  pipeline with exact drop accounting and subscriber taps.  The server
  control plane (:class:`~repro.server.services.fleetapi.FleetAPI`)
  owns one and feeds it diag reports, deployment life-cycle events,
  pusher back-pressure, and campaign timeline entries.
* :class:`MetricsRegistry` — counters, gauges, and windowed quantile
  histograms.
* :class:`SoakPolicy` — the telemetry-driven wave gate: sample the
  updated vehicles' :class:`~repro.core.messages.DiagMessage` telemetry
  over a soak window, compare against the pre-update baseline, and
  block promotion / trigger rollback on anomaly.
"""

from repro.telemetry.bus import (
    DEFAULT_CATEGORY_CAPACITY,
    TelemetryBus,
    TelemetryEvent,
)
from repro.telemetry.metrics import (
    DEFAULT_MAX_SAMPLES,
    Counter,
    Gauge,
    MetricsRegistry,
    WindowedHistogram,
)
from repro.telemetry.soak import (
    SoakMonitor,
    SoakPolicy,
    SoakVerdict,
    VehicleBaseline,
)

__all__ = [
    "DEFAULT_CATEGORY_CAPACITY",
    "DEFAULT_MAX_SAMPLES",
    "TelemetryBus",
    "TelemetryEvent",
    "Counter",
    "Gauge",
    "WindowedHistogram",
    "MetricsRegistry",
    "SoakMonitor",
    "SoakPolicy",
    "SoakVerdict",
    "VehicleBaseline",
]
