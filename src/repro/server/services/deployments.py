"""DeploymentService: install/uninstall life cycle and ack processing.

The paper's plug-in (re)deployment operations (Sec. 3.2.2) as one
cohesive control-plane service: deploy, uninstall, batch dispatch,
retry, abandon, update, restore, and reconcile — all returning uniform
:class:`~repro.server.services.envelope.Response` envelopes — plus the
upstream acknowledgement pump.  Everything that decides an install
outcome lives on the database's installation records, so a server
restart changes no outcome.  Every change of an installation record's
state is published as one ``deploy`` event on the control plane's
:class:`~repro.telemetry.bus.TelemetryBus`; campaign engines, the fault
injector and the gateway's event stream learn installation state by
tapping that category.

This is the single code path for installation status queries;
``Platform.installation_status`` and ``Deployment.status`` delegate
here.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from repro.core import messages as msg
from repro.errors import PackagingError, ServerError, UnknownEntityError
from repro.server.database import Database
from repro.server.models import (
    InstallStatus,
    InstalledApp,
    InstalledPlugin,
    Vehicle,
)
from repro.server.contextgen import PackagePlans
from repro.server.pusher import Pusher
from repro.server.services.appstore import AppStore
from repro.server.services.envelope import ErrorCode, Response
from repro.telemetry.bus import TelemetryBus


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


class DeploymentService:
    """The install/uninstall control plane."""

    def __init__(
        self,
        db: Database,
        pusher: Pusher,
        store: AppStore,
        telemetry: TelemetryBus,
    ) -> None:
        self.db = db
        self.pusher = pusher
        self.store = store
        #: The control plane's bus: deployment life-cycle events and
        #: relayed DiagMessage telemetry are published onto it.
        self.telemetry = telemetry
        self.acks_processed = 0
        self.malformed_upstream = 0
        self._plans = PackagePlans()

    # -- events ---------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        vin: str,
        app_name: str,
        status: Optional[InstallStatus] = None,
    ) -> None:
        """Publish one installation state change as a ``deploy`` event.

        ``kind`` is the event name: ``install_resolved`` (the record
        reached ACTIVE or FAILED), ``uninstall_done`` (the record was
        removed after every uninstall ack), ``uninstall_failed`` (a
        negative uninstall ack other than ``UNKNOWN_PLUGIN``, which
        counts as removed) or ``update_redeploy_failed`` (an
        :meth:`update` removed the old version but the server refused
        the new one, so the app is absent from the vehicle).  The data
        holds ``app`` and ``status`` (the status value, or ``""``).
        """
        self.telemetry.publish(
            "deploy", kind, self.pusher.now, vin=vin,
            app=app_name, status=status.value if status else "",
        )

    def _set_status(
        self,
        vehicle: Vehicle,
        installed: InstalledApp,
        status: InstallStatus,
        event: str = "",
    ) -> None:
        """The only status writer: move ``installed`` to ``status`` and,
        if that changed it, publish the ``deploy`` event ``event``."""
        if installed.status is status:
            return
        installed.status = status
        if event:
            self._emit(event, vehicle.vin, installed.app_name, status)

    # -- deployment -----------------------------------------------------------

    def deploy(self, user_id: str, vin: str, app_name: str) -> Response:
        """Install an APP on a vehicle (the paper's install operation)."""
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
            return Response.failure(
                ErrorCode.INCOMPATIBLE, *report.reasons, value=report
            )
        assert report.sw_conf is not None
        # Every vehicle with the same plan gets the same package objects
        # and so shares one encoded message per plug-in.
        packages = self._plans.packages(app, report.sw_conf, vehicle)
        installed = InstalledApp(app.name, app.version, InstallStatus.PENDING)
        for package in packages:
            message = package.message
            installed.plugins.append(
                InstalledPlugin(
                    plugin_name=message.plugin_name,
                    swc_name=message.target_swc,
                    ecu_name=message.target_ecu,
                    port_ids=package.port_ids,
                    package=package.raw,
                    footprint=len(message.binary),
                )
            )
        self.pusher.push_many(vin, [package.raw for package in packages])
        vehicle.conf.installed[app.name] = installed
        vehicle.update_failures.pop(app.name, None)
        return Response.success(report, pushed_messages=len(packages))

    def uninstall(self, user_id: str, vin: str, app_name: str) -> Response:
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
        installed.update_user = ""
        removing = installed.status is InstallStatus.REMOVING
        self._set_status(vehicle, installed, InstallStatus.REMOVING)
        # A teardown in flight may have lost its messages: the same
        # pushes repeat it.  An uninstall that reaches the vehicle twice
        # is answered UNKNOWN_PLUGIN the second time, which counts as
        # removed.
        pushed = self._push_uninstalls(vin, installed)
        if removing:
            return Response.success(
                reasons=["removal already in progress"],
                pushed_messages=pushed,
            )
        return Response.success(pushed_messages=pushed)

    def _push_uninstalls(self, vin: str, installed: InstalledApp) -> int:
        """Push the uninstall of each plug-in that may still be on the
        vehicle (not ``removed``); returns how many were pushed."""
        raws = [
            msg.UninstallMessage(
                record.plugin_name, record.ecu_name, record.swc_name
            ).encode()
            for record in installed.plugins
            if not record.removed
        ]
        self.pusher.push_many(vin, raws)
        return len(raws)

    # -- batch / campaign operations ------------------------------------------

    def deploy_batch(
        self, user_id: str, vins: Iterable[str], app_name: str
    ) -> dict[str, Response]:
        """Install an APP on many vehicles; per-VIN acceptance envelopes.

        The campaign engine's wave dispatch: one server pass pushes a
        whole wave's packages instead of N independent portal requests.
        """
        return {vin: self.deploy(user_id, vin, app_name) for vin in vins}

    def retry_install(self, user_id: str, vin: str, app_name: str) -> Response:
        """Re-push the unacknowledged plug-ins of a stuck installation.

        Valid while the install is PENDING (acks lost / vehicle offline)
        or FAILED (negative ack): plug-ins whose install was acked and
        that are not removed are left alone, the rest are re-sent from
        the stored packages and the status returns to PENDING.  This is
        the campaign engine's retry-budget primitive.
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
        unacked = [
            record for record in installed.plugins
            if not record.acked or record.removed
        ]
        if not unacked:
            return Response.failure(
                ErrorCode.NOTHING_TO_DO,
                f"APP {app_name} on {vin} has nothing to retry",
            )
        for record in unacked:
            self._resend(vehicle, installed, record)
        return Response.success(pushed_messages=len(unacked))

    def abandon(self, user_id: str, vin: str, app_name: str) -> Response:
        """Drop a failed/stuck installation record (rollback cleanup).

        Unlike :meth:`uninstall`, the record, and with it any update
        waiting on it, is removed immediately and no acknowledgements
        are awaited: uninstall messages go out best-effort for the
        plug-ins that may still be on the vehicle, by :meth:`uninstall`'s
        rule: every one whose removal it has not confirmed.  Used by
        campaign rollback when an
        install never fully happened; flagging the vehicle for the
        workshop is the campaign engine's part.
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
        return Response.success(
            pushed_messages=self._push_uninstalls(vin, installed)
        )

    def update(self, user_id: str, vin: str, app_name: str) -> Response:
        """Update an installed APP to the latest uploaded version.

        The paper's pragmatic model (Sec. 5): the plug-ins are stopped
        and removed, then the new version is installed fresh — no state
        transfer.  The re-deployment triggers automatically once the
        vehicle has acknowledged every uninstall.  The waiting update is
        the record's ``update_user``, so it survives a server restart.
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
        installed.update_user = user_id
        return Response.success(pushed_messages=result.pushed_messages)

    def restore(self, vin: str, ecu_name: str) -> Response:
        """Re-deploy the plug-ins of a physically replaced ECU."""
        try:
            vehicle = self.db.vehicle(vin)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        pushed = self._resend_all(
            vehicle, lambda record: record.ecu_name == ecu_name
        )
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

        def missing(record: InstalledPlugin) -> bool:
            report = vehicle.health.get(record.swc_name)
            return report is not None and all(
                h.plugin_name != record.plugin_name
                for h in report.plugins  # type: ignore[attr-defined]
            )

        pushed = self._resend_all(vehicle, missing)
        if pushed == 0:
            return Response.success(reasons=["nothing to reconcile"])
        return Response.success(pushed_messages=pushed)

    # -- ack processing --------------------------------------------------------

    def on_vehicle_message(self, vin: str, raw: bytes) -> None:
        """Handle one upstream message (ack/diag) from a vehicle's ECM.

        Bytes that do not decode are dropped, counted in
        :attr:`malformed_upstream` and published as one ``deploy``
        event; the vehicle's later messages are handled as usual.
        """
        try:
            message = msg.decode(raw)
        except PackagingError as exc:
            self.malformed_upstream += 1
            self.telemetry.publish(
                "deploy", "malformed_upstream", self.pusher.now, vin=vin,
                bytes=len(raw), error=str(exc),
            )
            return
        if isinstance(message, msg.DiagMessage):
            self.db.vehicle(vin).health[message.source_swc] = message
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
        """Apply one ack: uninstall acks exactly while the record is
        REMOVING, install acks exactly while it is not.  Any other ack
        answers a superseded attempt (a late install ack, an old
        :meth:`abandon`'s teardown) and must not touch the record."""
        removing = installed.status is InstallStatus.REMOVING
        expected = (
            msg.MessageType.UNINSTALL if removing else msg.MessageType.INSTALL
        )
        if message.op is not expected:
            return
        if not removing:
            if message.ok:
                record.acked = True
                record.nacked = False
                if installed.all_acked():
                    self._set_status(
                        vehicle, installed, InstallStatus.ACTIVE,
                        "install_resolved",
                    )
            elif not record.acked:
                # A NACK for an acked plug-in answers a stale duplicate
                # package (a retry raced a delayed original): the
                # vehicle is healthy, so the record is not demoted.
                record.nacked = True
                self._set_status(
                    vehicle, installed, InstallStatus.FAILED,
                    "install_resolved",
                )
        elif message.ok or message.status is msg.AckStatus.UNKNOWN_PLUGIN:
            # A plug-in the vehicle no longer has (an ECU that lost its
            # RAM) is as removed as one it just uninstalled.
            record.removed = True
            if all(record.removed for record in installed.plugins):
                self._remove(vehicle, installed)
        else:
            # A half-removed app cannot be auto-updated anymore.
            installed.update_user = ""
            self._set_status(
                vehicle, installed, InstallStatus.FAILED, "uninstall_failed"
            )

    def _remove(self, vehicle: Vehicle, installed: InstalledApp) -> None:
        """Delete a fully uninstalled record; redeploy a waiting update."""
        app_name = installed.app_name
        del vehicle.conf.installed[app_name]
        self._emit("uninstall_done", vehicle.vin, app_name)
        if not installed.update_user:
            return
        redeploy = self.deploy(installed.update_user, vehicle.vin, app_name)
        if not redeploy.ok:
            # The old version is gone and the new one was rejected:
            # surface it — portal queries must not mistake this for a
            # clean uninstall.  The trace lives on the vehicle record,
            # so it survives a server restart; see :meth:`update_failure`.
            vehicle.update_failures[app_name] = list(redeploy.reasons)
            self._emit("update_redeploy_failed", vehicle.vin, app_name)

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

    def _resend_all(
        self, vehicle: Vehicle, lost: Callable[[InstalledPlugin], bool]
    ) -> int:
        """:meth:`_resend` every plug-in ``lost`` picks; the count.  A
        record mid-uninstall is skipped: its pending uninstall acks would
        delete the record of plug-ins just re-installed."""
        picked = [
            (installed, record)
            for installed in vehicle.conf.installed.values()
            if installed.status is not InstallStatus.REMOVING
            for record in installed.plugins
            if lost(record)
        ]
        for installed, record in picked:
            self._resend(vehicle, installed, record)
        return len(picked)

    def _resend(
        self,
        vehicle: Vehicle,
        installed: InstalledApp,
        record: InstalledPlugin,
    ) -> None:
        """Push ``record``'s stored package again; the record is PENDING."""
        if not record.package:
            raise ServerError(
                f"no stored package for plug-in {record.plugin_name}"
            )
        record.acked = record.nacked = record.removed = False
        self._set_status(vehicle, installed, InstallStatus.PENDING)
        self.pusher.push(vehicle.vin, record.package)

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
]
