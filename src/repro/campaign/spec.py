"""Campaign declarations: wave sizing, health gates, rollback policy.

A :class:`CampaignSpec` describes one staged fleet rollout the way a
real OTA program would: which vehicles are targeted, how the fleet is
partitioned into waves (fixed size, cumulative percentages, or
exponential growth), whether the first wave is a canary with its own
health thresholds, how many retries a stuck vehicle gets, and what
happens when a wave breaches its health gate.

Wave policies are pure functions of the target VIN list (selector
waves also of the vehicle records), so the same spec partitions the
same fleet identically on every run — the property the partition
tests and the deterministic-replay tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.server.services.selector import FleetSelector
from repro.sim.kernel import MS, SECOND
from repro.telemetry.soak import SoakPolicy

#: Settle time before a retry is pushed.  Must exceed the spread of one
#: attempt's acknowledgements so stale NACKs from the failed attempt
#: land on the already-FAILED record instead of voiding the retry (they
#: cause no status transition, hence no event).
RETRY_BACKOFF_US = 200 * MS

#: How long a canary wave that passed its gate waits before the next
#: wave, when the spec has no telemetry soak gate.
CANARY_SOAK_US = 500 * MS

#: How long any other wave that passed its gate (or its soak) waits
#: before the next wave.
WAVE_PAUSE_US = 100 * MS


# -- wave sizing ---------------------------------------------------------------


class WavePolicy:
    """Strategy that partitions an ordered VIN list into rollout waves.

    ``partition(vins, resolve)`` must cover every VIN at most once and
    preserve order.  ``resolve(vin)`` returns the server's vehicle
    record; count-based policies ignore it.  They never emit an empty
    wave; attribute-based ones (:class:`SelectorWaves`) may, to keep
    wave indices aligned with the declared selectors — the engine
    handles empty waves.  Policies serialize to plain dicts
    (:meth:`to_dict` / :meth:`from_dict`) so campaign specs can be
    persisted as database entities; a policy without ``to_dict``
    cannot be staged.
    """

    def partition(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[list[str]]:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "WavePolicy":
        try:
            kind = data["kind"]
        except (TypeError, KeyError):
            raise ConfigurationError(
                f"not a serialized wave policy: {data!r}"
            ) from None
        factory = _WAVE_REGISTRY.get(kind)
        if factory is None:
            raise ConfigurationError(f"unknown wave policy kind {kind!r}")
        try:
            return factory(data)
        except ConfigurationError:
            raise
        except Exception as exc:  # missing operand, wrong type, ...
            raise ConfigurationError(
                f"malformed wave policy payload for kind {kind!r}: {exc}"
            ) from exc

    def _chunks(
        self, vins: Sequence[str], sizes: Sequence[int]
    ) -> list[list[str]]:
        waves: list[list[str]] = []
        start = 0
        for size in sizes:
            if start >= len(vins):
                break
            wave = list(vins[start : start + size])
            if wave:
                waves.append(wave)
            start += size
        if start < len(vins):
            waves.append(list(vins[start:]))
        return waves


@dataclass(frozen=True)
class FixedWaves(WavePolicy):
    """Waves of a constant vehicle count (the last takes the remainder)."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(
                f"fixed wave size must be positive (got {self.size})"
            )

    def partition(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[list[str]]:
        return self._chunks(
            vins, [self.size] * math.ceil(len(vins) / self.size)
        )

    def to_dict(self) -> dict:
        return {"kind": "fixed", "size": self.size}


@dataclass(frozen=True)
class PercentageWaves(WavePolicy):
    """Waves cut at cumulative fleet fractions, e.g. ``(0.05, 0.25, 1.0)``.

    Fraction ``f`` means "after this wave, ceil(f * fleet) vehicles have
    been targeted".  A trailing 1.0 is implied when absent.
    """

    fractions: tuple[float, ...] = (0.05, 0.25, 1.0)

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ConfigurationError("percentage waves need >= 1 fraction")
        previous = 0.0
        for fraction in self.fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"wave fraction {fraction} outside (0, 1]"
                )
            if fraction <= previous:
                raise ConfigurationError(
                    f"wave fractions must increase (got {self.fractions})"
                )
            previous = fraction

    def partition(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[list[str]]:
        n = len(vins)
        waves: list[list[str]] = []
        start = 0
        for fraction in self.fractions:
            cut = min(n, math.ceil(fraction * n))
            if cut > start:
                waves.append(list(vins[start:cut]))
                start = cut
        if start < n:
            waves.append(list(vins[start:]))
        return waves

    def to_dict(self) -> dict:
        return {"kind": "percentage", "fractions": list(self.fractions)}


@dataclass(frozen=True)
class ExponentialWaves(WavePolicy):
    """Waves that grow geometrically: ``initial``, ``initial*factor``, ...

    The classic canary shape — touch a handful of vehicles, then double
    (or more) each time confidence grows.
    """

    initial: int = 1
    factor: int = 2

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ConfigurationError(
                f"initial wave size must be positive (got {self.initial})"
            )
        if self.factor < 2:
            raise ConfigurationError(
                f"exponential wave factor must be >= 2 (got {self.factor})"
            )

    def partition(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[list[str]]:
        sizes = []
        size, remaining = self.initial, len(vins)
        while remaining > 0:
            sizes.append(size)
            remaining -= size
            size *= self.factor
        return self._chunks(vins, sizes)

    def to_dict(self) -> dict:
        return {
            "kind": "exponential",
            "initial": self.initial,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class SelectorWaves(WavePolicy):
    """Waves cut by fleet attributes instead of counts.

    Wave ``i`` contains the (still unassigned) target VINs matching
    ``selectors[i]`` — e.g. canary on one region, then model-by-model.
    Targets matching no selector form a final remainder wave when
    ``remainder`` is True, and are simply not targeted otherwise.

    Unlike the count-based policies, a selector that matches nothing
    yields an **empty wave** rather than disappearing: wave indices
    (and therefore canary semantics and per-wave health policies) stay
    aligned with the declared selectors, and the report shows that the
    intended wave had no vehicles.
    """

    selectors: tuple[FleetSelector, ...]
    remainder: bool = True

    def __post_init__(self) -> None:
        if not self.selectors:
            raise ConfigurationError("selector waves need >= 1 selector")
        for selector in self.selectors:
            if not isinstance(selector, FleetSelector):
                raise ConfigurationError(
                    f"selector waves need FleetSelectors (got {selector!r})"
                )
        object.__setattr__(self, "selectors", tuple(self.selectors))

    def partition(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[list[str]]:
        remaining = list(vins)
        waves: list[list[str]] = []
        for selector in self.selectors:
            wave = [vin for vin in remaining if selector.matches(resolve(vin))]
            waves.append(wave)
            if wave:
                taken = set(wave)
                remaining = [vin for vin in remaining if vin not in taken]
        if remaining and self.remainder:
            waves.append(remaining)
        return waves

    def to_dict(self) -> dict:
        return {
            "kind": "selector",
            "selectors": [s.to_dict() for s in self.selectors],
            "remainder": self.remainder,
        }


_WAVE_REGISTRY: dict[str, Callable[[dict], WavePolicy]] = {
    "fixed": lambda data: FixedWaves(data["size"]),
    "percentage": lambda data: PercentageWaves(tuple(data["fractions"])),
    "exponential": lambda data: ExponentialWaves(
        data["initial"], data["factor"]
    ),
    "selector": lambda data: SelectorWaves(
        tuple(FleetSelector.from_dict(s) for s in data["selectors"]),
        data.get("remainder", True),
    ),
}


# -- gates and reactions -------------------------------------------------------


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds a wave must satisfy before the rollout promotes.

    Rates are fractions of the wave's *attempted* vehicles (accepted by
    the server; rejected VINs are excluded up front): the share that
    failed and the share that timed out.  ``None`` disables a
    threshold.
    """

    max_failure_rate: Optional[float] = 0.1
    max_timeout_rate: Optional[float] = 0.1

    def breaches(
        self, attempted: int, failed: int, timed_out: int
    ) -> list[str]:
        """Human-readable threshold violations (empty = gate passes)."""
        if attempted <= 0:
            return []
        problems = []
        failure_rate = failed / attempted
        timeout_rate = timed_out / attempted
        if (
            self.max_failure_rate is not None
            and failure_rate > self.max_failure_rate
        ):
            problems.append(
                f"failure rate {failure_rate:.2f} > "
                f"{self.max_failure_rate:.2f}"
            )
        if (
            self.max_timeout_rate is not None
            and timeout_rate > self.max_timeout_rate
        ):
            problems.append(
                f"timeout rate {timeout_rate:.2f} > "
                f"{self.max_timeout_rate:.2f}"
            )
        return problems

    def to_dict(self) -> dict:
        return {
            "max_failure_rate": self.max_failure_rate,
            "max_timeout_rate": self.max_timeout_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthPolicy":
        return cls(
            max_failure_rate=data.get("max_failure_rate"),
            max_timeout_rate=data.get("max_timeout_rate"),
        )


#: Rollback scopes: undo the breaching wave, undo the whole campaign so
#: far, or halt in place without touching installed vehicles.
ROLLBACK_SCOPES = ("wave", "campaign", "none")


@dataclass(frozen=True)
class RollbackPolicy:
    """What a health-gate breach does to already-updated vehicles."""

    scope: str = "wave"
    timeout_us: int = 60 * SECOND

    def __post_init__(self) -> None:
        if self.scope not in ROLLBACK_SCOPES:
            raise ConfigurationError(
                f"rollback scope must be one of {ROLLBACK_SCOPES} "
                f"(got {self.scope!r})"
            )

    def to_dict(self) -> dict:
        return {"scope": self.scope, "timeout_us": self.timeout_us}

    @classmethod
    def from_dict(cls, data: dict) -> "RollbackPolicy":
        return cls(scope=data["scope"], timeout_us=data["timeout_us"])


# -- the campaign itself -------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """One staged fleet rollout, fully declared up front.

    ``selector`` filters the targeted fleet (None targets every
    vehicle): a serializable
    :class:`~repro.server.services.selector.FleetSelector` evaluated
    against server vehicle records, so every spec survives a server
    restart.  With ``canary`` True the first wave is the canary: it
    soaks for :data:`CANARY_SOAK_US` after resolving and may use the
    stricter ``canary_health`` thresholds; later waves wait
    :data:`WAVE_PAUSE_US` before the next one.  A VIN's retries each
    wait :data:`RETRY_BACKOFF_US` before they are pushed.
    """

    app_name: str
    waves: WavePolicy = field(default_factory=PercentageWaves)
    selector: Optional[FleetSelector] = None
    canary: bool = True
    health: HealthPolicy = field(default_factory=HealthPolicy)
    canary_health: Optional[HealthPolicy] = None
    rollback: RollbackPolicy = field(default_factory=RollbackPolicy)
    retry_budget: int = 1
    wave_timeout_us: int = 30 * SECOND
    #: Telemetry-driven soak gate (see :class:`repro.telemetry.SoakPolicy`).
    #: When set, every wave with updated vehicles soaks under sampled
    #: DiagMessage telemetry before promotion; the blind canary pause
    #: (:data:`CANARY_SOAK_US`) is replaced by the policy's window.  None
    #: keeps the time-only soak.
    soak: Optional[SoakPolicy] = None
    user_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.app_name:
            raise ConfigurationError("campaign needs an app_name")
        if self.selector is not None and not isinstance(
            self.selector, FleetSelector
        ):
            raise ConfigurationError(
                f"campaign selector must be a FleetSelector "
                f"(got {self.selector!r})"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry budget must be >= 0 (got {self.retry_budget})"
            )
        if self.wave_timeout_us <= 0:
            raise ConfigurationError(
                f"wave timeout must be positive (got {self.wave_timeout_us})"
            )

    def is_canary_wave(self, index: int, wave_count: int) -> bool:
        """Whether wave ``index`` is the canary.

        A single-wave campaign has no canary — there is nothing to
        promote to, so canary gating/soaking would be meaningless.
        """
        return index == 0 and self.canary and wave_count > 1

    def health_for_wave(self, index: int, wave_count: int) -> HealthPolicy:
        if (
            self.is_canary_wave(index, wave_count)
            and self.canary_health is not None
        ):
            return self.canary_health
        return self.health

    def resolve_targets(
        self, vins: Sequence[str], resolve: Callable[[str], object]
    ) -> list[str]:
        """Targeted VINs, evaluating the selector via ``resolve``.

        ``resolve(vin)`` returns the server's vehicle record (the
        engine passes ``api.vehicles.resolve``).
        """
        if self.selector is None:
            return list(vins)
        return [vin for vin in vins if self.selector.matches(resolve(vin))]

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize for database persistence.

        Raises ``NotImplementedError`` when the wave policy or a
        selector does not implement ``to_dict``.
        """
        return {
            "app_name": self.app_name,
            "waves": self.waves.to_dict(),
            "selector": (
                self.selector.to_dict() if self.selector is not None else None
            ),
            "canary": self.canary,
            "health": self.health.to_dict(),
            "canary_health": (
                self.canary_health.to_dict()
                if self.canary_health is not None
                else None
            ),
            "rollback": self.rollback.to_dict(),
            "retry_budget": self.retry_budget,
            "wave_timeout_us": self.wave_timeout_us,
            "soak": self.soak.to_dict() if self.soak is not None else None,
            "user_id": self.user_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        try:
            return cls._from_dict(data)
        except ConfigurationError:
            raise
        except Exception as exc:  # missing field, wrong type, ...
            raise ConfigurationError(
                f"malformed campaign spec payload: {exc}"
            ) from exc

    @classmethod
    def _from_dict(cls, data: dict) -> "CampaignSpec":
        return cls(
            app_name=data["app_name"],
            waves=WavePolicy.from_dict(data["waves"]),
            selector=(
                FleetSelector.from_dict(data["selector"])
                if data.get("selector") is not None
                else None
            ),
            canary=data["canary"],
            health=HealthPolicy.from_dict(data["health"]),
            canary_health=(
                HealthPolicy.from_dict(data["canary_health"])
                if data.get("canary_health") is not None
                else None
            ),
            rollback=RollbackPolicy.from_dict(data["rollback"]),
            retry_budget=data["retry_budget"],
            wave_timeout_us=data["wave_timeout_us"],
            # .get: payloads persisted before soak gates existed lack
            # the key; they keep the legacy time-only soak.
            soak=(
                SoakPolicy.from_dict(data["soak"])
                if data.get("soak") is not None
                else None
            ),
            user_id=data.get("user_id"),
        )


__all__ = [
    "CANARY_SOAK_US",
    "RETRY_BACKOFF_US",
    "WAVE_PAUSE_US",
    "WavePolicy",
    "FixedWaves",
    "PercentageWaves",
    "ExponentialWaves",
    "SelectorWaves",
    "HealthPolicy",
    "RollbackPolicy",
    "ROLLBACK_SCOPES",
    "CampaignSpec",
]
