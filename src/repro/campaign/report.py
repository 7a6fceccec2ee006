"""Campaign outcome records: per-wave timelines, per-VIN dispositions.

Everything in a :class:`CampaignReport` derives from simulated time and
seeded randomness — no wall clock, no iteration-order surprises — so
two runs of the same spec on the same seed produce byte-identical
``to_dict()`` output.  The deterministic-replay tests rely on that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.kernel import format_time


class Disposition(enum.Enum):
    """Final fate of one targeted vehicle."""

    UPDATED = "updated"              # APP active and kept
    ROLLED_BACK = "rolled_back"      # was updated, then uninstalled
    NEEDS_WORKSHOP = "needs_workshop"  # failed/stuck; server gave up
    EXCLUDED = "excluded"            # server rejected the deploy request
    SKIPPED = "skipped"              # wave never started (halt upstream)


@dataclass(frozen=True)
class CampaignEvent:
    """One timestamped entry in the campaign timeline."""

    time_us: int
    kind: str
    wave: int
    vin: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "kind": self.kind,
            "wave": self.wave,
            "vin": self.vin,
            "detail": self.detail,
        }


@dataclass
class WaveReport:
    """Outcome of one rollout wave."""

    index: int
    canary: bool
    vins: list[str]
    started_us: Optional[int] = None
    resolved_us: Optional[int] = None
    attempted: int = 0
    updated: int = 0
    failed: int = 0
    timed_out: int = 0
    excluded: int = 0
    retries: int = 0
    breaches: list[str] = field(default_factory=list)
    #: Telemetry-driven soak gate outcome (None/empty when the spec has
    #: no :class:`~repro.telemetry.SoakPolicy` or the wave updated
    #: nothing): window bounds, diag reports received, per-VIN anomaly
    #: reasons, and the wave-level breach strings.
    soak_started_us: Optional[int] = None
    soak_resolved_us: Optional[int] = None
    soak_samples: int = 0
    soak_anomalies: dict[str, str] = field(default_factory=dict)
    soak_breaches: list[str] = field(default_factory=list)

    @property
    def duration_us(self) -> Optional[int]:
        if self.started_us is None or self.resolved_us is None:
            return None
        return self.resolved_us - self.started_us

    @property
    def soak_duration_us(self) -> Optional[int]:
        if self.soak_started_us is None or self.soak_resolved_us is None:
            return None
        return self.soak_resolved_us - self.soak_started_us

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "canary": self.canary,
            "vins": list(self.vins),
            "started_us": self.started_us,
            "resolved_us": self.resolved_us,
            "attempted": self.attempted,
            "updated": self.updated,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "excluded": self.excluded,
            "retries": self.retries,
            "breaches": list(self.breaches),
            "soak_started_us": self.soak_started_us,
            "soak_resolved_us": self.soak_resolved_us,
            "soak_samples": self.soak_samples,
            "soak_anomalies": {
                vin: self.soak_anomalies[vin]
                for vin in sorted(self.soak_anomalies)
            },
            "soak_breaches": list(self.soak_breaches),
        }


#: Terminal campaign statuses.
SUCCEEDED = "succeeded"
ROLLED_BACK = "rolled_back"
HALTED = "halted"
TIMED_OUT = "timed_out"


@dataclass
class CampaignReport:
    """Everything that happened during one campaign run."""

    app_name: str
    #: Persistent control-plane id (``cmp-NNNN``) the campaign service
    #: assigned.
    campaign_id: str
    status: str = "running"
    started_us: int = 0
    finished_us: Optional[int] = None
    waves: list[WaveReport] = field(default_factory=list)
    dispositions: dict[str, Disposition] = field(default_factory=dict)
    events: list[CampaignEvent] = field(default_factory=list)
    #: Per-campaign metric snapshot captured by the engine at finish:
    #: per-wave time-to-promote, rollback latency, outbox pressure, and
    #: telemetry-bus drop accounting.  Deterministic and JSON-ready.
    metrics: dict = field(default_factory=dict)

    # -- queries ---------------------------------------------------------------

    def count(self, disposition: Disposition) -> int:
        return sum(
            1 for value in self.dispositions.values() if value is disposition
        )

    @property
    def updated(self) -> int:
        return self.count(Disposition.UPDATED)

    @property
    def rolled_back(self) -> int:
        return self.count(Disposition.ROLLED_BACK)

    @property
    def needs_workshop(self) -> int:
        return self.count(Disposition.NEEDS_WORKSHOP)

    @property
    def excluded(self) -> int:
        return self.count(Disposition.EXCLUDED)

    @property
    def skipped(self) -> int:
        return self.count(Disposition.SKIPPED)

    def vins_with(self, disposition: Disposition) -> list[str]:
        return sorted(
            vin
            for vin, value in self.dispositions.items()
            if value is disposition
        )

    # -- rendering -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready rendering of the whole report."""
        return {
            "app_name": self.app_name,
            "campaign_id": self.campaign_id,
            "status": self.status,
            "started_us": self.started_us,
            "finished_us": self.finished_us,
            "waves": [wave.to_dict() for wave in self.waves],
            "dispositions": {
                vin: value.value
                for vin, value in sorted(self.dispositions.items())
            },
            "events": [event.to_dict() for event in self.events],
            "metrics": self.metrics,
        }

    def summary(self) -> str:
        """One-line outcome, e.g. for example scripts and logs."""
        elapsed = (
            format_time(self.finished_us - self.started_us)
            if self.finished_us is not None
            else "?"
        )
        return (
            f"campaign {self.app_name!r} {self.status} in {elapsed}: "
            f"{self.updated} updated, {self.rolled_back} rolled back, "
            f"{self.needs_workshop} need workshop, "
            f"{self.excluded} excluded, {self.skipped} skipped"
        )

    def timeline(self) -> str:
        """Multi-line per-wave rendering for human consumption."""
        lines = [self.summary()]
        for wave in self.waves:
            if wave.started_us is None:
                lines.append(
                    f"  wave {wave.index}"
                    f"{' (canary)' if wave.canary else ''}: "
                    f"not started ({len(wave.vins)} vehicles)"
                )
                continue
            duration = (
                format_time(wave.duration_us)
                if wave.duration_us is not None
                else "unresolved"
            )
            if wave.breaches:
                gate = f"BREACH: {'; '.join(wave.breaches)}"
            elif wave.soak_breaches:
                gate = f"SOAK BREACH: {'; '.join(wave.soak_breaches)}"
            elif wave.soak_resolved_us is not None:
                gate = f"gate passed (soak: {wave.soak_samples} reports)"
            else:
                gate = "gate passed"
            lines.append(
                f"  wave {wave.index}"
                f"{' (canary)' if wave.canary else ''}: "
                f"{wave.attempted} attempted, {wave.updated} updated, "
                f"{wave.failed} failed, {wave.timed_out} timed out "
                f"in {duration} — {gate}"
            )
        return "\n".join(lines)


__all__ = [
    "Disposition",
    "CampaignEvent",
    "WaveReport",
    "CampaignReport",
    "SUCCEEDED",
    "ROLLED_BACK",
    "HALTED",
    "TIMED_OUT",
]
