"""DeploymentService: install/uninstall life cycle and ack processing.

The paper's plug-in (re)deployment operations (Sec. 3.2.2) as one
cohesive control-plane service: deploy, uninstall, batch dispatch,
retry, abandon, update, restore, and reconcile — all returning uniform
:class:`~repro.server.services.envelope.Response` envelopes — plus the
upstream acknowledgement pump and the installation event bus campaign
engines subscribe to.

This is the single code path for installation status queries;
``Platform.installation_status`` and ``Deployment.status`` delegate
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from repro.core import messages as msg
from repro.errors import ServerError, UnknownEntityError
from repro.server.database import Database
from repro.server.models import (
    InstallStatus,
    InstalledApp,
    InstalledPlugin,
    Vehicle,
)
from repro.server.contextgen import generate_packages
from repro.server.pusher import Pusher
from repro.server.services.appstore import AppStore
from repro.server.services.envelope import ErrorCode, Response


@dataclass
class _PluginRecord(InstalledPlugin):
    """Installed-plugin record extended with the resend package."""

    package: bytes = b""
    footprint: int = 0


class InstallProgress(NamedTuple):
    """Per-install ack tally: positive, negative, and expected acks.

    A failed (NACK'd) plug-in is NOT pending — campaign health gates
    must distinguish "the vehicle said no" from "no answer yet".
    """

    acked: int
    failed: int
    total: int

    @property
    def pending(self) -> int:
        return self.total - self.acked - self.failed


@dataclass(frozen=True)
class ServerEvent:
    """Notification emitted when an installation record changes state.

    ``kind`` is one of ``install_resolved`` (status reached ACTIVE or
    FAILED), ``uninstall_done`` (record removed after all uninstall
    acks), ``uninstall_failed`` (a negative uninstall ack), or
    ``update_redeploy_failed`` (an :meth:`DeploymentService.update`
    removed the old version but the server rejected re-deploying the
    new one — the app is now absent from the vehicle).  Campaign
    engines subscribe via :meth:`DeploymentService.add_listener`
    instead of polling statuses.
    """

    kind: str
    vin: str
    app_name: str
    status: Optional[InstallStatus] = None


class DeploymentService:
    """The install/uninstall control plane."""

    def __init__(
        self,
        db: Database,
        pusher: Pusher,
        store: AppStore,
        telemetry=None,
    ) -> None:
        self.db = db
        self.pusher = pusher
        self.store = store
        #: Optional :class:`~repro.telemetry.TelemetryBus`; deployment
        #: life-cycle events and relayed DiagMessage telemetry are
        #: published onto it (duck-typed, None when unwired).
        self.telemetry = telemetry
        self.deploys = 0
        self.rejected_deploys = 0
        self.acks_processed = 0
        # (vin, app_name) -> user_id: update waiting for uninstall acks.
        self._pending_updates: dict[tuple[str, str], str] = {}
        self._listeners: list[Callable[[ServerEvent], None]] = []

    # -- events ---------------------------------------------------------------

    def add_listener(self, callback: Callable[[ServerEvent], None]) -> None:
        """Subscribe to installation state-change events."""
        if callback not in self._listeners:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[ServerEvent], None]) -> None:
        """Unsubscribe a previously added listener (no-op if absent)."""
        if callback in self._listeners:
            self._listeners.remove(callback)

    def _emit(
        self,
        kind: str,
        vin: str,
        app_name: str,
        status: Optional[InstallStatus] = None,
    ) -> None:
        event = ServerEvent(kind, vin, app_name, status)
        if self.telemetry is not None:
            self.telemetry.publish(
                "deploy", kind, self.pusher.now, vin=vin,
                app=app_name, status=status.value if status else "",
            )
        for callback in list(self._listeners):
            callback(event)

    # -- deployment -----------------------------------------------------------

    def deploy(
        self, user_id: str, vin: str, app_name: str, campaign: str = ""
    ) -> Response:
        """Install an APP on a vehicle (the paper's install operation).

        ``campaign`` tags the pushed packages so the pusher's global
        outbox budget can evict oldest-campaign-first under pressure.
        """
        vehicle, error = self._vehicle_for(user_id, vin)
        if error is not None:
            return error
        try:
            app = self.db.app(app_name)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        if app_name in vehicle.conf.installed:
            return Response.failure(
                ErrorCode.ALREADY_INSTALLED,
                f"APP {app_name} is already installed on {vin}",
            )
        report = self.store.evaluate(app, vehicle)
        if not report.ok:
            self.rejected_deploys += 1
            return Response.failure(
                ErrorCode.INCOMPATIBLE, *report.reasons, value=report
            )
        assert report.sw_conf is not None
        packages = generate_packages(app, report.sw_conf, vehicle)
        installed = InstalledApp(app.name, app.version, InstallStatus.PENDING)
        raws = []
        for package in packages:
            raw = package.message.encode()
            installed.plugins.append(
                _PluginRecord(
                    plugin_name=package.message.plugin_name,
                    swc_name=package.message.target_swc,
                    ecu_name=package.message.target_ecu,
                    port_ids=package.port_ids,
                    package=raw,
                    footprint=len(package.message.binary),
                )
            )
            raws.append(raw)
        self.pusher.push_many(vin, raws, campaign=campaign)
        vehicle.conf.installed[app.name] = installed
        vehicle.update_failures.pop(app.name, None)
        self.deploys += 1
        return Response.success(report, pushed_messages=len(packages))

    def uninstall(
        self, user_id: str, vin: str, app_name: str, campaign: str = ""
    ) -> Response:
        """Remove an APP, refusing while dependents remain installed."""
        vehicle, error = self._vehicle_for(user_id, vin)
        if error is not None:
            return error
        installed = vehicle.conf.installed.get(app_name)
        if installed is None:
            return Response.failure(
                ErrorCode.NOT_INSTALLED,
                f"APP {app_name} is not installed on {vin}",
            )
        dependents = self.db.dependents_of(vin, app_name)
        if dependents:
            # Paper: "the user is notified about the need to also
            # uninstall the dependent plug-ins".
            return Response.failure(
                ErrorCode.DEPENDENTS_PRESENT,
                f"APP {app_name} is required by installed APP(s) "
                f"{', '.join(sorted(dependents))}; uninstall them first",
            )
        # An explicit removal overrides any update waiting on this app:
        # the operator asked for the app to be gone, not replaced.
        self._pending_updates.pop((vin, app_name), None)
        if installed.status is InstallStatus.REMOVING:
            # Idempotent: the teardown is already in flight; re-pushing
            # duplicate uninstalls would only earn UNKNOWN_PLUGIN nacks
            # racing the real acks.
            return Response.success(reasons=["removal already in progress"])
        installed.status = InstallStatus.REMOVING
        raws = []
        for record in installed.plugins:
            record.acked = False
            record.nacked = False
            raws.append(
                msg.UninstallMessage(
                    record.plugin_name, record.ecu_name, record.swc_name
                ).encode()
            )
        self.pusher.push_many(vin, raws, campaign=campaign)
        return Response.success(pushed_messages=len(raws))

    # -- batch / campaign operations ------------------------------------------

    def deploy_batch(
        self,
        user_id: str,
        vins: Iterable[str],
        app_name: str,
        campaign: str = "",
    ) -> dict[str, Response]:
        """Install an APP on many vehicles; per-VIN acceptance envelopes.

        The campaign engine's wave dispatch: one server pass pushes a
        whole wave's packages instead of N independent portal requests.
        """
        return {
            vin: self.deploy(user_id, vin, app_name, campaign=campaign)
            for vin in vins
        }

    def uninstall_batch(
        self,
        user_id: str,
        vins: Iterable[str],
        app_name: str,
        campaign: str = "",
    ) -> dict[str, Response]:
        """Remove an APP from many vehicles (campaign rollback path)."""
        return {
            vin: self.uninstall(user_id, vin, app_name, campaign=campaign)
            for vin in vins
        }

    def retry_install(
        self, user_id: str, vin: str, app_name: str, campaign: str = ""
    ) -> Response:
        """Re-push the unacknowledged plug-ins of a stuck installation.

        Valid while the install is PENDING (acks lost / vehicle offline)
        or FAILED (negative ack): already-acked plug-ins are left alone,
        the rest are re-sent from the stored packages and the status
        returns to PENDING.  This is the campaign engine's retry-budget
        primitive.
        """
        vehicle, error = self._vehicle_for(user_id, vin)
        if error is not None:
            return error
        installed = vehicle.conf.installed.get(app_name)
        if installed is None:
            return Response.failure(
                ErrorCode.NOT_INSTALLED,
                f"APP {app_name} is not installed on {vin}",
            )
        if installed.status not in (InstallStatus.PENDING, InstallStatus.FAILED):
            return Response.failure(
                ErrorCode.INVALID_STATE,
                f"APP {app_name} on {vin} is {installed.status.value}; "
                f"only pending/failed installs can be retried",
            )
        pushed = 0
        for record in installed.plugins:
            if record.acked:
                continue
            if not isinstance(record, _PluginRecord) or not record.package:
                raise ServerError(
                    f"no stored package for plug-in {record.plugin_name}"
                )
            record.nacked = False
            self.pusher.push(vin, record.package, campaign=campaign)
            pushed += 1
        if pushed == 0:
            return Response.failure(
                ErrorCode.NOTHING_TO_DO,
                f"APP {app_name} on {vin} has nothing to retry",
            )
        installed.status = InstallStatus.PENDING
        return Response.success(pushed_messages=pushed)

    def abandon(
        self, user_id: str, vin: str, app_name: str, campaign: str = ""
    ) -> Response:
        """Drop a failed/stuck installation record (rollback cleanup).

        Unlike :meth:`uninstall`, the record is removed immediately and
        no acknowledgements are awaited: uninstall messages go out
        best-effort for the plug-ins the vehicle did confirm, and the
        vehicle is flagged for workshop attention.  Used by campaign
        rollback when an install never fully happened.
        """
        vehicle, error = self._vehicle_for(user_id, vin)
        if error is not None:
            return error
        installed = vehicle.conf.installed.pop(app_name, None)
        if installed is None:
            return Response.failure(
                ErrorCode.NOT_INSTALLED,
                f"APP {app_name} is not installed on {vin}",
            )
        self._pending_updates.pop((vin, app_name), None)
        pushed = 0
        for record in installed.plugins:
            if not record.acked:
                continue
            raw = msg.UninstallMessage(
                record.plugin_name, record.ecu_name, record.swc_name
            ).encode()
            self.pusher.push(vin, raw, campaign=campaign)
            pushed += 1
        return Response.success(pushed_messages=pushed)

    def update(self, user_id: str, vin: str, app_name: str) -> Response:
        """Update an installed APP to the latest uploaded version.

        The paper's pragmatic model (Sec. 5): the plug-ins are stopped
        and removed, then the new version is installed fresh — no state
        transfer.  The re-deployment triggers automatically once the
        vehicle has acknowledged every uninstall.
        """
        vehicle, error = self._vehicle_for(user_id, vin)
        if error is not None:
            return error
        installed = vehicle.conf.installed.get(app_name)
        if installed is None:
            return Response.failure(
                ErrorCode.NOT_INSTALLED,
                f"APP {app_name} is not installed on {vin}",
            )
        try:
            app = self.db.app(app_name)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        if app.version == installed.version:
            return Response.failure(
                ErrorCode.VERSION_UNCHANGED,
                f"APP {app_name} is already at version "
                f"{installed.version}; upload a new version first",
            )
        result = self.uninstall(user_id, vin, app_name)
        if not result.ok:
            return result
        self._pending_updates[(vin, app_name)] = user_id
        return Response.success(pushed_messages=result.pushed_messages)

    def restore(self, vin: str, ecu_name: str) -> Response:
        """Re-deploy the plug-ins of a physically replaced ECU."""
        try:
            vehicle = self.db.vehicle(vin)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        pushed = 0
        for installed in vehicle.conf.installed.values():
            if installed.status is InstallStatus.REMOVING:
                # Mid-uninstall: re-pushing installs here would race the
                # pending uninstall acks into deleting a record for
                # plug-ins that just got re-installed.
                continue
            for record in installed.plugins:
                if record.ecu_name != ecu_name:
                    continue
                if not isinstance(record, _PluginRecord) or not record.package:
                    raise ServerError(
                        f"no stored package for plug-in {record.plugin_name}"
                    )
                record.acked = False
                record.nacked = False
                installed.status = InstallStatus.PENDING
                self.pusher.push(vin, record.package)
                pushed += 1
        if pushed == 0:
            return Response.failure(
                ErrorCode.NOTHING_TO_DO,
                f"no plug-ins recorded on ECU {ecu_name} of {vin}",
            )
        return Response.success(pushed_messages=pushed)

    def reconcile(self, vin: str) -> Response:
        """Re-push plug-ins that the vehicle's health reports lack.

        Extension of the paper's restore operation: instead of the
        workshop naming the replaced ECU, the server compares its
        InstalledAPP records against the latest diagnostic reports and
        re-deploys whatever is missing (e.g. after an ECU lost its RAM
        state).  SW-Cs without a health report are left alone — absence
        of telemetry is not evidence of absence.
        """
        try:
            vehicle = self.db.vehicle(vin)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        pushed = 0
        for installed in vehicle.conf.installed.values():
            if installed.status is InstallStatus.REMOVING:
                continue
            for record in installed.plugins:
                report = vehicle.health.get(record.swc_name)
                if report is None:
                    continue
                present = {
                    h.plugin_name
                    for h in report.plugins  # type: ignore[attr-defined]
                }
                if record.plugin_name in present:
                    continue
                if not isinstance(record, _PluginRecord) or not record.package:
                    continue
                record.acked = False
                record.nacked = False
                installed.status = InstallStatus.PENDING
                self.pusher.push(vin, record.package)
                pushed += 1
        if pushed == 0:
            return Response.success(reasons=["nothing to reconcile"])
        return Response.success(pushed_messages=pushed)

    # -- ack processing --------------------------------------------------------

    def on_vehicle_message(self, vin: str, raw: bytes) -> None:
        """Handle one upstream message (ack/diag) from a vehicle's ECM."""
        message = msg.decode(raw)
        if isinstance(message, msg.DiagMessage):
            self.db.vehicle(vin).health[message.source_swc] = message
            if self.telemetry is not None:
                self.telemetry.publish(
                    "diag", "report", self.pusher.now, vin=vin,
                    swc=message.source_swc,
                    traps=sum(p.traps for p in message.plugins),
                    activations=sum(p.activations for p in message.plugins),
                    fuel_used=sum(p.fuel_used for p in message.plugins),
                    memory_used_blocks=message.memory_used_blocks,
                    memory_free_blocks=message.memory_free_blocks,
                    plugins=len(message.plugins),
                )
            return
        if not isinstance(message, msg.AckMessage):
            return
        self.acks_processed += 1
        vehicle = self.db.vehicle(vin)
        for installed in list(vehicle.conf.installed.values()):
            record = installed.plugin(message.plugin_name)
            if record is None or record.swc_name != message.target_swc:
                continue
            self._apply_ack(vehicle, installed, record, message)
            return

    def _apply_ack(
        self,
        vehicle: Vehicle,
        installed: InstalledApp,
        record: InstalledPlugin,
        message: msg.AckMessage,
    ) -> None:
        if message.op is msg.MessageType.INSTALL:
            if installed.status is InstallStatus.REMOVING:
                # The app is being torn down: a late install ack (or
                # NACK) from the superseded attempt must neither
                # resurrect the record to ACTIVE nor wedge the removal
                # in FAILED.  Mirrors the UNINSTALL-branch guard below.
                return
            if message.ok:
                record.acked = True
                record.nacked = False
                if installed.all_acked():
                    installed.status = InstallStatus.ACTIVE
                    self._emit(
                        "install_resolved", vehicle.vin, installed.app_name,
                        InstallStatus.ACTIVE,
                    )
            else:
                if record.acked:
                    # The plug-in is already confirmed installed; this
                    # NACK answers a stale duplicate package (e.g. a
                    # retry raced a delayed original).  The vehicle is
                    # healthy — do not demote the record.
                    return
                record.nacked = True
                previous = installed.status
                installed.status = InstallStatus.FAILED
                if previous is not InstallStatus.FAILED:
                    self._emit(
                        "install_resolved", vehicle.vin, installed.app_name,
                        InstallStatus.FAILED,
                    )
        elif message.op is msg.MessageType.UNINSTALL:
            if installed.status is not InstallStatus.REMOVING:
                # No removal is in progress for this record: the ack
                # answers an old best-effort uninstall (e.g. from an
                # abandon() whose record a later campaign re-created).
                # Applying it would corrupt — or delete — the fresh
                # installation.
                return
            if message.ok:
                record.acked = True
                if installed.all_acked():
                    del vehicle.conf.installed[installed.app_name]
                    self._emit(
                        "uninstall_done", vehicle.vin, installed.app_name
                    )
                    # A pending update re-deploys the new version now.
                    user_id = self._pending_updates.pop(
                        (vehicle.vin, installed.app_name), None
                    )
                    if user_id is not None:
                        redeploy = self.deploy(
                            user_id, vehicle.vin, installed.app_name
                        )
                        if not redeploy.ok:
                            # The old version is gone and the new one
                            # was rejected: surface it — portal queries
                            # must not mistake this for a clean
                            # uninstall.  The trace lives on the
                            # vehicle record, so it survives a server
                            # restart; see :meth:`update_failure`.
                            vehicle.update_failures[
                                installed.app_name
                            ] = list(redeploy.reasons)
                            self._emit(
                                "update_redeploy_failed",
                                vehicle.vin,
                                installed.app_name,
                            )
            else:
                installed.status = InstallStatus.FAILED
                # A half-removed app cannot be auto-updated anymore.
                self._pending_updates.pop(
                    (vehicle.vin, installed.app_name), None
                )
                self._emit(
                    "uninstall_failed", vehicle.vin, installed.app_name,
                    InstallStatus.FAILED,
                )

    # -- queries ---------------------------------------------------------------

    def installation_status(
        self, vin: str, app_name: str
    ) -> Optional[InstallStatus]:
        """Server-side status of ``app_name`` on ``vin`` (None if absent).

        THE status code path: ``Platform.installation_status`` and
        ``Deployment.status`` both delegate here.
        """
        installed = self.db.installation(vin, app_name)
        return installed.status if installed else None

    def update_failure(self, vin: str, app_name: str) -> Optional[list[str]]:
        """Rejection reasons of the last failed update redeploy, if any.

        Non-None means an :meth:`update` removed the old version but
        the server refused to deploy the new one — the app is absent
        from the vehicle *because of a failed update*, not a clean
        uninstall.  Persisted on the vehicle record (restart-safe);
        cleared by the next successful deploy of the app.
        """
        failure = self.db.vehicle(vin).update_failures.get(app_name)
        return list(failure) if failure is not None else None

    def installation_progress(
        self, vin: str, app_name: str
    ) -> InstallProgress:
        """Ack tally ``(acked, failed, total)`` for one installation.

        A negatively acknowledged plug-in counts as ``failed``, not as
        pending — health gates must not mistake a NACK for an install
        that is still on its way.  ``(0, 0, 0)`` when no installation
        record exists (never deployed, or fully uninstalled).
        """
        installed = self.db.installation(vin, app_name)
        if installed is None:
            return InstallProgress(0, 0, 0)
        return InstallProgress(
            sum(1 for record in installed.plugins if record.acked),
            sum(1 for record in installed.plugins if record.nacked),
            len(installed.plugins),
        )

    # -- internals --------------------------------------------------------------

    def _vehicle_for(
        self, user_id: str, vin: str
    ) -> tuple[Optional[Vehicle], Optional[Response]]:
        """``(vehicle, None)`` when authorized, ``(None, failure)`` otherwise.

        The shared entry check of every user-scoped operation: the
        vehicle and user must exist and be bound to each other.
        """
        try:
            vehicle = self.db.vehicle(vin)
            user = self.db.user(user_id)
        except UnknownEntityError as exc:
            return None, Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        if vehicle.owner != user.user_id:
            return None, Response.failure(
                ErrorCode.UNAUTHORIZED,
                f"vehicle {vin} is not bound to user {user_id}",
            )
        return vehicle, None


__all__ = [
    "DeploymentService",
    "InstallProgress",
    "ServerEvent",
]
