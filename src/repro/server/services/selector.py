"""FleetSelector: a composable, serializable fleet query DSL.

A :class:`FleetSelector` is a declarative predicate over server-side
:class:`~repro.server.models.Vehicle` records, with full boolean algebra
(``&``, ``|``, ``~``).  Selectors drive the portal query endpoint
(:meth:`VehicleService.query <repro.server.services.vehicles.VehicleService.query>`),
``Platform.deploy_to`` targeting, campaign target selection, and
selector-attribute wave scheduling
(:class:`~repro.campaign.spec.SelectorWaves`).

Unlike ad-hoc ``lambda vin: ...`` filters, selectors serialize to plain
dicts (:meth:`FleetSelector.to_dict` / :meth:`FleetSelector.from_dict`),
so campaign specs that use them can be persisted as database entities
and survive a server restart.

Example::

    from repro.server.services import FleetSelector as S

    degraded = (
        S.model("model-car-rpi")
        & S.region("eu-north")
        & ~S.installed("remote-control", version="2.0")
    )
    rows = api.vehicles.query(degraded).unwrap()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError
from repro.server.models import InstallStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.models import Vehicle


class FleetSelector:
    """Base class: a predicate over server vehicle records."""

    #: Discriminator used by :meth:`to_dict`; set per subclass.
    op = ""

    def matches(self, vehicle: "Vehicle") -> bool:
        raise NotImplementedError

    def candidate_vins(self) -> Optional[frozenset]:
        """The only VINs this selector can match, or None for no bound.

        A registry read visits just these instead of the whole fleet.
        """
        return None

    def __call__(self, vehicle: "Vehicle") -> bool:
        return self.matches(vehicle)

    # -- algebra --------------------------------------------------------------

    def __and__(self, other: "FleetSelector") -> "FleetSelector":
        return And(self, _checked(other))

    def __or__(self, other: "FleetSelector") -> "FleetSelector":
        return Or(self, _checked(other))

    def __invert__(self) -> "FleetSelector":
        return Not(self)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "FleetSelector":
        """Rebuild a selector tree from its :meth:`to_dict` rendering."""
        try:
            op = data["op"]
        except (TypeError, KeyError):
            raise ConfigurationError(
                f"not a serialized selector: {data!r}"
            ) from None
        factory = _REGISTRY.get(op)
        if factory is None:
            raise ConfigurationError(f"unknown selector op {op!r}")
        try:
            return factory(data)
        except ConfigurationError:
            raise
        except Exception as exc:  # missing operand, bad enum value, ...
            raise ConfigurationError(
                f"malformed selector payload for op {op!r}: {exc}"
            ) from exc

    # -- constructors (the public vocabulary) ---------------------------------

    @staticmethod
    def all() -> "FleetSelector":
        """Every registered vehicle."""
        return AllVehicles()

    @staticmethod
    def none() -> "FleetSelector":
        """No vehicle (the annihilator of ``|``)."""
        return NoVehicles()

    @staticmethod
    def model(name: str) -> "FleetSelector":
        """Vehicles of one OEM model."""
        return ModelIs(name)

    @staticmethod
    def region(name: str) -> "FleetSelector":
        """Vehicles registered to one region."""
        return RegionIs(name)

    @staticmethod
    def vins(vins: Iterable[str]) -> "FleetSelector":
        """An explicit VIN set."""
        return VinIn(frozenset(vins))

    @staticmethod
    def online() -> "FleetSelector":
        """Vehicles currently connected to the pusher."""
        return Online()

    @staticmethod
    def installed(
        app_name: str, version: Optional[str] = None
    ) -> "FleetSelector":
        """Vehicles with an installation record of ``app_name``.

        With ``version`` the record must match that exact version.
        """
        return Installed(app_name, version)

    @staticmethod
    def app_status(app_name: str, status: InstallStatus) -> "FleetSelector":
        """Vehicles whose ``app_name`` record is in ``status``."""
        return AppStatus(app_name, status)

    @staticmethod
    def healthy() -> "FleetSelector":
        """Vehicles with no FAILED installation record."""
        return Healthy()


def _checked(other: object) -> "FleetSelector":
    if not isinstance(other, FleetSelector):
        raise ConfigurationError(
            f"selector algebra needs FleetSelector operands (got {other!r})"
        )
    return other


# -- leaves --------------------------------------------------------------------


@dataclass(frozen=True)
class AllVehicles(FleetSelector):
    op = "all"

    def matches(self, vehicle: "Vehicle") -> bool:
        return True

    def to_dict(self) -> dict:
        return {"op": self.op}


@dataclass(frozen=True)
class NoVehicles(FleetSelector):
    op = "none"

    def matches(self, vehicle: "Vehicle") -> bool:
        return False

    def to_dict(self) -> dict:
        return {"op": self.op}


@dataclass(frozen=True)
class ModelIs(FleetSelector):
    model: str
    op = "model"

    def matches(self, vehicle: "Vehicle") -> bool:
        return vehicle.model == self.model

    def to_dict(self) -> dict:
        return {"op": self.op, "model": self.model}


@dataclass(frozen=True)
class RegionIs(FleetSelector):
    region: str
    op = "region"

    def matches(self, vehicle: "Vehicle") -> bool:
        return vehicle.region == self.region

    def to_dict(self) -> dict:
        return {"op": self.op, "region": self.region}


@dataclass(frozen=True)
class VinIn(FleetSelector):
    vin_set: frozenset
    op = "vins"

    def __post_init__(self) -> None:
        object.__setattr__(self, "vin_set", frozenset(self.vin_set))

    def matches(self, vehicle: "Vehicle") -> bool:
        return vehicle.vin in self.vin_set

    def candidate_vins(self) -> Optional[frozenset]:
        return self.vin_set

    def to_dict(self) -> dict:
        return {"op": self.op, "vins": sorted(self.vin_set)}


@dataclass(frozen=True)
class Online(FleetSelector):
    op = "online"

    def matches(self, vehicle: "Vehicle") -> bool:
        return bool(vehicle.online)

    def to_dict(self) -> dict:
        return {"op": self.op}


@dataclass(frozen=True)
class Installed(FleetSelector):
    app_name: str
    version: Optional[str] = None
    op = "installed"

    def matches(self, vehicle: "Vehicle") -> bool:
        record = vehicle.conf.installed.get(self.app_name)
        if record is None:
            return False
        return self.version is None or record.version == self.version

    def to_dict(self) -> dict:
        return {"op": self.op, "app": self.app_name, "version": self.version}


@dataclass(frozen=True)
class AppStatus(FleetSelector):
    app_name: str
    status: InstallStatus
    op = "app_status"

    def matches(self, vehicle: "Vehicle") -> bool:
        record = vehicle.conf.installed.get(self.app_name)
        return record is not None and record.status is self.status

    def to_dict(self) -> dict:
        return {"op": self.op, "app": self.app_name, "status": self.status.value}


@dataclass(frozen=True)
class Healthy(FleetSelector):
    op = "healthy"

    def matches(self, vehicle: "Vehicle") -> bool:
        return all(
            record.status is not InstallStatus.FAILED
            for record in vehicle.conf.installed.values()
        )

    def to_dict(self) -> dict:
        return {"op": self.op}


# -- combinators ---------------------------------------------------------------


@dataclass(frozen=True)
class And(FleetSelector):
    left: FleetSelector
    right: FleetSelector
    op = "and"

    def matches(self, vehicle: "Vehicle") -> bool:
        return self.left.matches(vehicle) and self.right.matches(vehicle)

    def candidate_vins(self) -> Optional[frozenset]:
        left = self.left.candidate_vins()
        right = self.right.candidate_vins()
        if left is None:
            return right
        if right is None:
            return left
        return left & right

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


@dataclass(frozen=True)
class Or(FleetSelector):
    left: FleetSelector
    right: FleetSelector
    op = "or"

    def matches(self, vehicle: "Vehicle") -> bool:
        return self.left.matches(vehicle) or self.right.matches(vehicle)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


@dataclass(frozen=True)
class Not(FleetSelector):
    inner: FleetSelector
    op = "not"

    def matches(self, vehicle: "Vehicle") -> bool:
        return not self.inner.matches(vehicle)

    def to_dict(self) -> dict:
        return {"op": self.op, "inner": self.inner.to_dict()}


_REGISTRY = {
    "all": lambda data: AllVehicles(),
    "none": lambda data: NoVehicles(),
    "model": lambda data: ModelIs(data["model"]),
    "region": lambda data: RegionIs(data["region"]),
    "vins": lambda data: VinIn(frozenset(data["vins"])),
    "online": lambda data: Online(),
    "installed": lambda data: Installed(data["app"], data.get("version")),
    "app_status": lambda data: AppStatus(
        data["app"], InstallStatus(data["status"])
    ),
    "healthy": lambda data: Healthy(),
    "and": lambda data: And(
        FleetSelector.from_dict(data["left"]),
        FleetSelector.from_dict(data["right"]),
    ),
    "or": lambda data: Or(
        FleetSelector.from_dict(data["left"]),
        FleetSelector.from_dict(data["right"]),
    ),
    "not": lambda data: Not(FleetSelector.from_dict(data["inner"])),
}


__all__ = [
    "FleetSelector",
    "AllVehicles",
    "NoVehicles",
    "ModelIs",
    "RegionIs",
    "VinIn",
    "Online",
    "Installed",
    "AppStatus",
    "Healthy",
    "And",
    "Or",
    "Not",
]
