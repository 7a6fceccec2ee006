"""AppStore: APP uploads, versioning, verification, and compatibility.

Uploads are gated by the static bytecode verifier
(:mod:`repro.vm.verify`): every plug-in binary of an uploaded APP is
decoded and analyzed against the limits the interpreter will actually
enforce — the plug-in's declared port count, its ``mem_hint`` memory
pool, and the activation fuel quota.  A binary with error-tier findings
(guaranteed stack underflow, out-of-range port index, malformed code
stream, ...) is rejected with :data:`ErrorCode.VERIFICATION_FAILED`
before it can reach a single vehicle; the full report rides in the
response payload and stays queryable via :meth:`AppStore.verification`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BinaryFormatError, DuplicateEntityError, UnknownEntityError
from repro.server.compatibility import CompatibilityReport, check_compatibility
from repro.server.database import Database
from repro.server.models import App, Vehicle
from repro.server.services.envelope import ErrorCode, Response
from repro.vm.loader import unpack
from repro.vm.verify import VerificationReport, VerifyLimits, verify_binary, verify_container


@dataclass
class AppVerification:
    """Verification outcome of one APP (all plug-ins, one version)."""

    app_name: str
    version: str
    reports: dict[str, VerificationReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Deployable: no plug-in carries error-tier findings."""
        return all(report.ok for report in self.reports.values())

    @property
    def clean(self) -> bool:
        return all(report.clean for report in self.reports.values())

    def reasons(self) -> list[str]:
        """One human-readable line per error-tier finding."""
        out = []
        for plugin_name in sorted(self.reports):
            for finding in self.reports[plugin_name].errors:
                out.append(f"plug-in {plugin_name}: {finding.describe()}")
        return out

    def to_dict(self) -> dict:
        return {
            "app_name": self.app_name,
            "version": self.version,
            "ok": self.ok,
            "clean": self.clean,
            "reports": {
                name: report.to_dict()
                for name, report in sorted(self.reports.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppVerification":
        return cls(
            app_name=data["app_name"],
            version=data.get("version", ""),
            reports={
                name: VerificationReport.from_dict(report)
                for name, report in (data.get("reports") or {}).items()
            },
        )


class AppStore:
    """Developer-facing side of the control plane."""

    def __init__(
        self, db: Database, fuel_per_activation: int = 20_000
    ) -> None:
        self.db = db
        #: Fuel quota the verifier assumes per activation; matches the
        #: :class:`~repro.core.plugin_swc.PluginSwcSpec` default the
        #: vehicle-side PIRTE enforces.
        self.fuel_per_activation = fuel_per_activation

    # -- verification ---------------------------------------------------------

    def verify_app(self, app: App) -> AppVerification:
        """Statically verify every plug-in binary of ``app``.

        Pure function of the APP — nothing is recorded.  Each plug-in is
        checked against its own declared context: its ``port_names``
        bound the port indices its bytecode may use, and the binary's
        ``mem_hint`` bounds constant LOAD/STORE addresses.
        """
        verification = AppVerification(app.name, app.version)
        for plugin_name in sorted(app.plugins):
            descriptor = app.plugins[plugin_name]
            limits = VerifyLimits(
                fuel_per_activation=self.fuel_per_activation,
                num_ports=len(descriptor.port_names),
            )
            try:
                binary = unpack(descriptor.binary)
            except BinaryFormatError:
                verification.reports[plugin_name] = verify_container(
                    descriptor.binary, limits
                )
                continue
            verification.reports[plugin_name] = verify_binary(binary, limits)
        return verification

    def verification(self, app_name: str) -> Response:
        """Latest recorded verification of ``app_name`` (portal query)."""
        try:
            return Response.success(self.db.verification(app_name))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))

    def preflight(self, app_name: str) -> Response:
        """Campaign pre-flight: is the stored APP safe to roll out?

        Re-uses the recorded upload-time verification when it matches
        the stored version, re-verifies otherwise (an APP inserted
        around the gate, e.g. seeded directly into the database).
        Failure carries ``VERIFICATION_FAILED`` with the offending
        report in the payload — the same shape the upload gate returns.
        """
        try:
            app = self.db.app(app_name)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        recorded = self.db.verifications.get(app_name)
        if recorded is not None and recorded.version == app.version:
            verification = recorded
        else:
            verification = self.verify_app(app)
            self.db.record_verification(verification)
        if not verification.ok:
            return Response.failure(
                ErrorCode.VERIFICATION_FAILED,
                *verification.reasons(),
                value=verification,
            )
        return Response.success(verification)

    # -- uploads --------------------------------------------------------------

    def upload(self, app: App) -> Response:
        """Developer upload: binaries plus deployment descriptors.

        Rejected with ``VERIFICATION_FAILED`` (report in the payload)
        when any plug-in binary carries error-tier findings; the
        verification record is stored either way so the failure is
        queryable afterwards.
        """
        if app.name in self.db.apps:
            # Preserve the pre-verifier duplicate semantics: a name
            # collision rejects before any binary is analyzed.
            return Response.failure(
                ErrorCode.DUPLICATE_ENTITY, f"app {app.name!r} exists"
            )
        verification = self.verify_app(app)
        self.db.record_verification(verification)
        if not verification.ok:
            return Response.failure(
                ErrorCode.VERIFICATION_FAILED,
                *verification.reasons(),
                value=verification,
            )
        try:
            return Response.success(self.db.add_app(app))
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))

    def upload_version(self, app: App) -> Response:
        """Developer upload of a NEW VERSION of an existing APP."""
        existing = self.db.apps.get(app.name)
        if existing is None:
            return Response.failure(
                ErrorCode.UNKNOWN_ENTITY, f"no app {app.name!r}"
            )
        if existing.version == app.version:
            return Response.failure(
                ErrorCode.DUPLICATE_ENTITY,
                f"app {app.name!r} version {app.version} already stored",
            )
        verification = self.verify_app(app)
        self.db.record_verification(verification)
        if not verification.ok:
            return Response.failure(
                ErrorCode.VERIFICATION_FAILED,
                *verification.reasons(),
                value=verification,
            )
        try:
            return Response.success(self.db.replace_app(app))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        except DuplicateEntityError as exc:
            return Response.failure(ErrorCode.DUPLICATE_ENTITY, str(exc))

    def get(self, name: str) -> Response:
        try:
            return Response.success(self.db.app(name))
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))

    # -- compatibility --------------------------------------------------------

    def evaluate(self, app: App, vehicle: Vehicle) -> CompatibilityReport:
        """Full server-side acceptance check of ``app`` on ``vehicle``.

        The declarative compatibility check plus the store-wide rules:
        reverse conflicts declared by already-installed APPs, and the
        per-SW-C plug-in memory budget (declared binary footprints of
        installed plug-ins + the newcomer against the SW-C's VM quota).
        """
        report = check_compatibility(app, vehicle)
        self._check_reverse_conflicts(app, vehicle, report)
        self._check_memory_budget(app, vehicle, report)
        return report

    def compatibility(self, app_name: str, vin: str) -> Response:
        """Portal preview: would ``app_name`` deploy onto ``vin``?

        Pure query — nothing is pushed or recorded.  The payload is the
        full :class:`CompatibilityReport` either way; ``ok`` mirrors it.
        """
        try:
            app = self.db.app(app_name)
            vehicle = self.db.vehicle(vin)
        except UnknownEntityError as exc:
            return Response.failure(ErrorCode.UNKNOWN_ENTITY, str(exc))
        report = self.evaluate(app, vehicle)
        if not report.ok:
            return Response.failure(
                ErrorCode.INCOMPATIBLE, *report.reasons, value=report
            )
        return Response.success(report)

    # -- store-wide rules ------------------------------------------------------

    def _check_reverse_conflicts(
        self, app: App, vehicle: Vehicle, report: CompatibilityReport
    ) -> None:
        for name in vehicle.conf.installed:
            other = self.db.apps.get(name)
            if other is not None and app.name in other.conflicts:
                report.add_failure(
                    f"installed APP {name} declares a conflict with "
                    f"{app.name}"
                )

    def _check_memory_budget(
        self, app: App, vehicle: Vehicle, report: CompatibilityReport
    ) -> None:
        conf = app.conf_for_model(vehicle.model)
        if conf is None:
            return
        per_swc: dict[str, int] = {}
        for plugin_name, descriptor in app.plugins.items():
            swc_name = conf.swc_for(plugin_name)
            if swc_name is None:
                continue
            per_swc[swc_name] = per_swc.get(swc_name, 0) + len(descriptor.binary)
        for swc_name, needed in per_swc.items():
            swc = vehicle.conf.system_sw.swc(swc_name)
            if swc is None:
                continue
            used = 0
            for installed in vehicle.conf.installed.values():
                for record in installed.plugins:
                    if record.swc_name == swc_name:
                        used += record.footprint
            if used + needed > swc.vm_memory_bytes:
                report.add_failure(
                    f"SW-C {swc_name} memory budget exceeded: "
                    f"{used} used + {needed} needed > {swc.vm_memory_bytes}"
                )


__all__ = ["AppStore", "AppVerification"]
