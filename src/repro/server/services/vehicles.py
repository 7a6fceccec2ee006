"""VehicleService: registry, user binding, health, and portal queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DuplicateEntityError, UnknownEntityError
from repro.server.database import Database
from repro.server.models import (
    HwConf,
    SystemSwConf,
    User,
    Vehicle,
    VehicleConf,
)
from repro.server.pusher import Pusher
from repro.server.services.envelope import ErrorCode, Response
from repro.server.services.selector import FleetSelector


@dataclass(frozen=True)
class VehicleView:
    """Portal-facing summary row of one vehicle (the query payload)."""

    vin: str
    model: str
    region: str
    owner: str
    online: bool
    apps: tuple = field(default=())  # (app_name, version, status.value) rows

    def to_dict(self) -> dict:
        return {
            "vin": self.vin,
            "model": self.model,
            "region": self.region,
            "owner": self.owner,
            "online": self.online,
            "apps": [list(row) for row in self.apps],
        }


class VehicleService:
    """Fleet registry and portal query endpoint."""

    def __init__(self, db: Database, pusher: Pusher) -> None:
        self.db = db
        self.pusher = pusher
        self.queries = 0

    # -- registry -------------------------------------------------------------

    def create_user(self, user_id: str, name: str) -> Response:
        """Register a portal user account."""
        try:
            return Response.success(self.db.add_user(User(user_id, name)))
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))

    def register(
        self,
        vin: str,
        model: str,
        hw: HwConf,
        system_sw: SystemSwConf,
        region: str = "",
    ) -> Response:
        """OEM upload: a vehicle with its HW conf, exposed API, and region."""
        try:
            vehicle = self.db.add_vehicle(
                Vehicle(vin, model, VehicleConf(hw, system_sw), region=region)
            )
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))
        return Response.success(vehicle)

    def register_many(self, rows) -> Response:
        """Bulk OEM upload; one registry pass instead of N envelopes.

        ``rows`` is an iterable of ``(vin, model, hw, system_sw, region)``
        tuples.  All-or-nothing: a duplicate VIN anywhere in the batch
        registers nothing.  The payload is the number registered —
        fleet builders registering 100k vehicles should not pay for
        100k Response allocations and per-call duplicate probes.
        """
        vehicles = [
            Vehicle(vin, model, VehicleConf(hw, system_sw), region=region)
            for vin, model, hw, system_sw, region in rows
        ]
        try:
            self.db.add_vehicles(vehicles)
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))
        return Response.success(len(vehicles))

    def bind(self, user_id: str, vin: str) -> Response:
        """Associate a vehicle with a user account."""
        try:
            self.db.bind_vehicle(user_id, vin)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))
        return Response.success()

    def bind_many(self, user_id: str, vins: list[str]) -> Response:
        """Bulk user binding, all-or-nothing; payload is the count."""
        try:
            self.db.bind_vehicles(user_id, vins)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))
        return Response.success(len(vins))

    # -- lookups --------------------------------------------------------------

    def resolve(self, vin: str) -> Vehicle:
        """The vehicle record with a live connectivity flag.

        Internal fast path shared by selectors, campaign targeting, and
        the query endpoint; raises on unknown VINs like the database.
        """
        vehicle = self.db.vehicle(vin)
        vehicle.online = self.pusher.is_connected(vin)
        return vehicle

    def get(self, vin: str) -> Response:
        try:
            return Response.success(self.resolve(vin))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))

    def health(self, vin: str) -> Response:
        """Latest diagnostic report per plug-in SW-C of ``vin``."""
        try:
            return Response.success(dict(self.db.vehicle(vin).health))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))

    # -- the portal query endpoint --------------------------------------------

    def query(self, selector: Optional[FleetSelector] = None) -> Response:
        """Portal-style fleet query: selector -> :class:`VehicleView` rows.

        ``None`` selects the whole fleet.  Rows come back ordered by VIN
        so repeated queries render deterministically.  Only the
        registered VINs the selector can match are visited
        (:meth:`FleetSelector.candidate_vins`), so a one-VIN read does
        not scan the fleet.
        """
        if selector is not None and not isinstance(selector, FleetSelector):
            return Response.failure(
                ErrorCode.INVALID_REQUEST,
                f"query needs a FleetSelector (got {type(selector).__name__})",
            )
        self.queries += 1
        registry = self.db.vehicles
        bound = None if selector is None else selector.candidate_vins()
        if bound is None:
            vins = sorted(registry)
        else:
            vins = sorted(vin for vin in bound if vin in registry)
        rows = []
        for vin in vins:
            vehicle = self.resolve(vin)
            if selector is not None and not selector.matches(vehicle):
                continue
            apps = tuple(
                (record.app_name, record.version, record.status.value)
                for record in vehicle.conf.installed.values()
            )
            rows.append(
                VehicleView(
                    vin=vehicle.vin,
                    model=vehicle.model,
                    region=vehicle.region,
                    owner=vehicle.owner or "",
                    online=vehicle.online,
                    apps=apps,
                )
            )
        return Response.success(rows)


__all__ = ["VehicleService", "VehicleView"]
