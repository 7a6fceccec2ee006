"""Unified deployment handles.

Every deploy operation on a :class:`~repro.api.platform.Platform` (one
vehicle or a whole fleet) returns a :class:`Deployment`: one object that
carries the per-vehicle acceptance
:class:`~repro.server.services.envelope.Response` envelopes, tracks
per-vehicle installation status and plug-in acks against the trusted
server's records, and can drive the simulation kernel forward until the
campaign resolves (:meth:`Deployment.wait`) — replacing ad-hoc result
lists plus manual ``installation_status`` polling loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import DeploymentTimeout, UnknownEntityError
from repro.server.models import InstallStatus
from repro.server.services.deployments import InstallProgress
from repro.server.services.envelope import Response
from repro.sim.kernel import MS, SECOND

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.platform import Platform

#: Statuses in which the server no longer waits for vehicle acks.
TERMINAL_STATUSES = (InstallStatus.ACTIVE, InstallStatus.FAILED)


class Deployment:
    """Handle over one APP deployment across one or more vehicles.

    Iterating yields the per-vehicle :class:`Response` envelopes in
    request order, so fleet code like ``sum(r.ok for r in deployment)``
    keeps working unchanged.
    """

    def __init__(
        self,
        platform: "Platform",
        app_name: str,
        results: dict[str, Response],
    ) -> None:
        self._platform = platform
        self.app_name = app_name
        self.results = results

    # -- acceptance (synchronous part) ---------------------------------------

    def __iter__(self) -> Iterator[Response]:
        return iter(self.results.values())

    def __len__(self) -> int:
        return len(self.results)

    def result(self, vin: str) -> Response:
        """The server's synchronous accept/reject outcome for ``vin``."""
        try:
            return self.results[vin]
        except KeyError:
            raise UnknownEntityError(
                f"deployment of {self.app_name} does not cover {vin}"
            ) from None

    @property
    def ok(self) -> bool:
        """True when the server accepted the request for every vehicle."""
        return all(r.ok for r in self.results.values())

    @property
    def accepted_vins(self) -> list[str]:
        return [vin for vin, r in self.results.items() if r.ok]

    @property
    def rejected_vins(self) -> list[str]:
        return [vin for vin, r in self.results.items() if not r.ok]

    def reasons(self, vin: str) -> list[str]:
        """Why the server rejected (or flagged) the request for ``vin``."""
        return list(self.result(vin).reasons)

    # -- status tracking (asynchronous part) ---------------------------------

    def status(self, vin: str) -> Optional[InstallStatus]:
        """Current server-side installation status for one vehicle."""
        return self._platform.server.api.deployments.installation_status(
            vin, self.app_name
        )

    def statuses(self) -> dict[str, Optional[InstallStatus]]:
        """Current per-vehicle statuses, accepted vehicles only."""
        return {vin: self.status(vin) for vin in self.accepted_vins}

    def acks(self, vin: str) -> InstallProgress:
        """``(acked, failed, total)`` plug-in acknowledgements for one vehicle.

        ``failed`` counts negatively acknowledged plug-ins — distinct
        from pending ones, which simply have not answered yet.
        """
        return self._platform.server.api.deployments.installation_progress(
            vin, self.app_name
        )

    @property
    def active_vins(self) -> list[str]:
        return [
            vin
            for vin in self.accepted_vins
            if self.status(vin) is InstallStatus.ACTIVE
        ]

    def active_count(self) -> int:
        return len(self.active_vins)

    @property
    def resolved(self) -> bool:
        """True when every accepted vehicle reached a terminal status."""
        return all(
            self.status(vin) in TERMINAL_STATUSES
            for vin in self.accepted_vins
        )

    @property
    def all_active(self) -> bool:
        """True when the APP is ACTIVE on every accepted vehicle."""
        accepted = self.accepted_vins
        return bool(accepted) and all(
            self.status(vin) is InstallStatus.ACTIVE for vin in accepted
        )

    # -- kernel-driven completion --------------------------------------------

    def wait(
        self,
        timeout_us: int = 60 * SECOND,
        step_us: int = 50 * MS,
    ) -> int:
        """Advance simulated time until every accepted install resolves.

        Boots the platform if needed, then steps the shared simulator in
        ``step_us`` chunks until each accepted vehicle reports a terminal
        status (ACTIVE or FAILED).  Returns the elapsed simulated
        microseconds; raises :class:`DeploymentTimeout` if the campaign
        has not resolved within ``timeout_us``.
        """
        self._platform.boot()
        sim = self._platform.sim
        start = sim.now
        deadline = start + timeout_us
        while not self.resolved:
            if sim.now >= deadline:
                pending = [
                    f"{vin}={getattr(self.status(vin), 'value', None)}"
                    for vin in self.accepted_vins
                    if self.status(vin) not in TERMINAL_STATUSES
                ]
                raise DeploymentTimeout(
                    f"deployment of {self.app_name} unresolved after "
                    f"{timeout_us}us: {', '.join(pending)}"
                )
            sim.run_for(min(step_us, deadline - sim.now))
        return sim.now - start

    def __repr__(self) -> str:
        return (
            f"<Deployment {self.app_name!r} vehicles={len(self.results)} "
            f"accepted={len(self.accepted_vins)} "
            f"active={self.active_count()}>"
        )


__all__ = ["Deployment", "TERMINAL_STATUSES"]
