"""CampaignService: persistent campaign lifecycle and admission control.

Campaigns stop being process-local engine state here: every staged
campaign is persisted as a :class:`~repro.server.models.CampaignRecord`
database entity (spec, fault plan, status, final report), so the portal
can list and query campaigns, and a staged campaign survives a
simulated server restart — :meth:`CampaignService.load` reconstructs
resumable state from the database and a resumed run with the same seed
produces a byte-identical report.

The service is also the **admission controller** across concurrent
campaigns: engines claim the VINs they are actively touching, and a
vehicle that is mid-flight — in particular *mid-rollback* — for one
campaign cannot be targeted by another.  Denied VINs surface in the
second campaign's report as ``EXCLUDED`` with an ``admission_denied``
event naming the holding campaign.

The heavy campaign machinery (:mod:`repro.campaign`) is imported
lazily: it sits above the server in the layer diagram.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import UnknownEntityError
from repro.server.database import Database
from repro.server.models import CampaignRecord
from repro.server.services.envelope import ErrorCode, Response

#: Claim phases an engine moves a VIN through.
PHASE_UPDATING = "updating"
PHASE_ROLLING_BACK = "rolling_back"

#: Record statuses that can be (re)staged into an engine.
RESUMABLE_STATUSES = ("staged", "interrupted")


class CampaignService:
    """Campaign persistence, queries, and cross-campaign admission."""

    def __init__(self, db: Database) -> None:
        self.db = db
        #: Live (spec, faults) pairs: campaigns created in this process
        #: (their engine may be running here) and records revived by
        #: :meth:`_revive`, so each record is deserialized once.
        self._live: dict[str, tuple] = {}
        #: vin -> (campaign_id, phase): VINs actively held by an engine.
        self._claims: dict[str, tuple[str, str]] = {}

    # -- lifecycle -------------------------------------------------------------

    def _next_id(self) -> str:
        highest = 0
        for campaign_id in self.db.campaigns:
            prefix, _, suffix = campaign_id.rpartition("-")
            if prefix == "cmp" and suffix.isdigit():
                highest = max(highest, int(suffix))
        return f"cmp-{highest + 1:04d}"

    def create(
        self,
        spec,
        faults=None,
        user_id: Optional[str] = None,
        created_us: int = 0,
    ) -> Response:
        """Stage a campaign: persist it and return its record.

        The spec (and optional fault plan) are serialized into the
        record so the campaign can be resumed after a restart.  A spec
        whose wave policy or selector lacks ``to_dict`` is refused with
        ``NOT_PERSISTABLE``; nothing is recorded.
        """
        try:
            data = spec.to_dict()
        except NotImplementedError:
            return Response.failure(
                ErrorCode.NOT_PERSISTABLE,
                f"campaign for {spec.app_name} cannot be staged: a spec "
                f"component (wave policy or selector) does not implement "
                f"to_dict()",
            )
        record = CampaignRecord(
            campaign_id=self._next_id(),
            app_name=spec.app_name,
            spec=data,
            owner=user_id or spec.user_id or "",
            status="staged",
            created_us=created_us,
            faults=faults.to_dict() if faults is not None else None,
        )
        self.db.add_campaign(record)
        self._live[record.campaign_id] = (spec, faults)
        return Response.success(record)

    def get(self, campaign_id: str) -> Response:
        try:
            return Response.success(self.db.campaign(campaign_id))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))

    def list(self, status: Optional[str] = None) -> Response:
        """Campaign records, newest last, optionally filtered by status."""
        records = [
            record
            for _, record in sorted(self.db.campaigns.items())
            if status is None or record.status == status
        ]
        return Response.success(records)

    def load(self) -> Response:
        """Reconstruct campaign state from the database after a restart.

        Staged campaigns become resumable again (their specs are
        deserialized); campaigns that were mid-run when the server died
        are marked ``interrupted`` — their engine state is gone, but the
        persisted spec allows an operator-initiated re-run against the
        server's surviving installation records.  Returns the resumable
        records.
        """
        resumable = []
        for _, record in sorted(self.db.campaigns.items()):
            if record.status == "running":
                if record.campaign_id in self._live:
                    # The engine is alive in this very process — no
                    # restart happened.  Demoting it to "interrupted"
                    # would let a second engine run under the same
                    # campaign_id, bypassing admission control.
                    continue
                record.status = "interrupted"
                record.notes.append("server restarted mid-run")
            if record.status not in RESUMABLE_STATUSES:
                continue
            revived = self._revive(record)
            if revived.ok:
                resumable.append(record)
            else:
                # One corrupt or unregistered record must not abort
                # recovery of the healthy campaigns around it; flag it
                # on the record instead.
                note = f"failed to deserialize: {'; '.join(revived.reasons)}"
                if note not in record.notes:
                    record.notes.append(note)
        return Response.success(resumable)

    def restage(self, campaign_id: str) -> Response:
        """The live ``(spec, faults)`` pair of a resumable campaign."""
        try:
            record = self.db.campaign(campaign_id)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        if record.status not in RESUMABLE_STATUSES:
            return Response.failure(
                ErrorCode.CAMPAIGN_STATE,
                f"campaign {campaign_id} is {record.status}; only "
                f"{'/'.join(RESUMABLE_STATUSES)} campaigns can be resumed",
            )
        return self._revive(record)

    def _revive(self, record: CampaignRecord) -> Response:
        """The live ``(spec, faults)`` pair of ``record``, deserializing
        and caching it in ``_live`` on first touch.

        The one deserialization code path shared by :meth:`load` and
        :meth:`restage`, so version migrations happen in one place.
        """
        pair = self._live.get(record.campaign_id)
        if pair is not None:
            return Response.success(pair)
        try:
            pair = (
                self._deserialize_spec(record.spec),
                self._deserialize_faults(record.faults),
            )
        except Exception as exc:  # noqa: BLE001 - envelope, not raise
            return Response.failure(
                ErrorCode.NOT_PERSISTABLE,
                f"campaign {record.campaign_id} record cannot be "
                f"deserialized: {exc}",
            )
        self._live[record.campaign_id] = pair
        return Response.success(pair)

    @staticmethod
    def _deserialize_spec(data: dict):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec.from_dict(data)

    @staticmethod
    def _deserialize_faults(data: Optional[dict]):
        if data is None:
            return None
        from repro.campaign.faults import FaultPlan

        return FaultPlan.from_dict(data)

    # -- engine callbacks ------------------------------------------------------

    def on_started(self, campaign_id: str, now_us: int) -> None:
        record = self.db.campaigns.get(campaign_id)
        if record is not None:
            record.status = "running"
            record.started_us = now_us

    def on_finished(self, campaign_id: str, report) -> None:
        self.release(campaign_id)
        # Terminal campaigns can never be restaged; drop the live pair.
        self._live.pop(campaign_id, None)
        record = self.db.campaigns.get(campaign_id)
        if record is not None:
            record.status = report.status
            record.finished_us = report.finished_us
            record.report = report.to_dict()

    # -- admission control -----------------------------------------------------

    def admit(self, campaign_id: str, vins) -> dict[str, str]:
        """Denied VINs -> reason, for a wave this campaign wants to touch.

        A VIN held by *another* campaign — being updated, or worse,
        mid-rollback — cannot be targeted until that campaign releases
        it.  The campaign's own claims never deny.
        """
        denied = {}
        for vin in vins:
            claim = self._claims.get(vin)
            if claim is not None and claim[0] != campaign_id:
                denied[vin] = (
                    f"held by campaign {claim[0]} ({claim[1]})"
                )
        return denied

    def claim(
        self, campaign_id: str, vins, phase: str = PHASE_UPDATING
    ) -> list[str]:
        """Claim ``vins`` for ``campaign_id``; returns the VINs claimed.

        VINs already held by another campaign are skipped (the caller
        decided to proceed anyway — e.g. a rollback of its own earlier
        installs always goes ahead).
        """
        claimed = []
        for vin in vins:
            holder = self._claims.get(vin)
            if holder is not None and holder[0] != campaign_id:
                continue
            self._claims[vin] = (campaign_id, phase)
            claimed.append(vin)
        return claimed

    def release(self, campaign_id: str, vins=None) -> None:
        """Release claims of ``campaign_id`` (all of them when ``vins`` is None)."""
        if vins is None:
            vins = [
                vin
                for vin, claim in self._claims.items()
                if claim[0] == campaign_id
            ]
        for vin in vins:
            claim = self._claims.get(vin)
            if claim is not None and claim[0] == campaign_id:
                del self._claims[vin]

    def claimed_by(self, vin: str) -> Optional[tuple[str, str]]:
        """``(campaign_id, phase)`` currently holding ``vin``, if any."""
        return self._claims.get(vin)


__all__ = [
    "CampaignService",
    "PHASE_ROLLING_BACK",
    "PHASE_UPDATING",
    "RESUMABLE_STATUSES",
]
