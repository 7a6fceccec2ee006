"""Uniform request/response envelopes of the fleet control plane.

Every mutating operation on a :class:`~repro.server.services.fleetapi.FleetAPI`
service returns a :class:`Response`: a typed envelope carrying a success
flag, a structured :class:`ErrorCode`, human-readable reasons, and an
operation-specific payload.  Entity-lookup and authorization failures
are codes too (``UNKNOWN_ENTITY``, ``UNAUTHORIZED``), never exceptions,
so portal-style clients branch on codes instead of parsing messages.
Cheap status probes (``installation_status`` and friends) return plain
values; envelopes are for operations and portal queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional

from repro.errors import ServerError


class ErrorCode(enum.Enum):
    """Structured outcome codes of control-plane operations."""

    OK = "ok"
    # entity / authorization failures
    UNKNOWN_ENTITY = "unknown_entity"
    UNAUTHORIZED = "unauthorized"
    DUPLICATE_ENTITY = "duplicate_entity"
    # deployment rejections
    ALREADY_INSTALLED = "already_installed"
    NOT_INSTALLED = "not_installed"
    INCOMPATIBLE = "incompatible"
    DEPENDENTS_PRESENT = "dependents_present"
    INVALID_STATE = "invalid_state"
    NOTHING_TO_DO = "nothing_to_do"
    VERSION_UNCHANGED = "version_unchanged"
    # static bytecode verification (upload gate / campaign pre-flight)
    VERIFICATION_FAILED = "verification_failed"
    # campaign control plane
    NOT_PERSISTABLE = "not_persistable"
    CAMPAIGN_STATE = "campaign_state"
    INVALID_REQUEST = "invalid_request"


def wire_value(value: Any) -> Any:
    """Recursively reduce a payload to JSON-serializable primitives.

    This is the single definition of "what an envelope payload looks
    like on the wire": entities that know how to serialize themselves
    (``to_dict``) use that form, named tuples and dataclasses fall back
    to field dicts, enums to their values, and sets to sorted lists so
    the output is deterministic.  Anything else is a programming error
    — raising beats silently shipping ``repr()`` strings to clients.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): wire_value(item) for key, item in value.items()}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {key: wire_value(item) for key, item in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [wire_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(wire_value(item) for item in value)
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: wire_value(getattr(value, f.name)) for f in fields(value)
        }
    raise TypeError(
        f"payload of type {type(value).__name__} is not wire-serializable"
    )


class ApiError(ServerError):
    """Raised by :meth:`Response.unwrap` on a failed operation."""

    def __init__(self, code: ErrorCode, reasons: list[str]) -> None:
        super().__init__(
            f"[{code.value}] {'; '.join(reasons) if reasons else 'operation failed'}"
        )
        self.code = code
        self.reasons = reasons


@dataclass
class Response:
    """Typed envelope returned by every control-plane operation.

    ``value`` carries the operation-specific payload (created entity,
    compatibility report, query rows, campaign record, ...);
    ``pushed_messages`` counts downstream pusher traffic the operation
    caused.
    """

    ok: bool
    code: ErrorCode = ErrorCode.OK
    reasons: list[str] = field(default_factory=list)
    value: Any = None
    pushed_messages: int = 0

    @classmethod
    def success(
        cls,
        value: Any = None,
        pushed_messages: int = 0,
        reasons: Optional[list[str]] = None,
    ) -> "Response":
        return cls(
            True, ErrorCode.OK, list(reasons or []), value, pushed_messages
        )

    @classmethod
    def failure(
        cls, code: ErrorCode, *reasons: str, value: Any = None
    ) -> "Response":
        return cls(False, code, list(reasons), value)

    @property
    def report(self) -> Any:
        """Compatibility-report payload when the operation produced one."""
        from repro.server.compatibility import CompatibilityReport

        return self.value if isinstance(self.value, CompatibilityReport) else None

    def unwrap(self) -> Any:
        """The payload on success; :class:`ApiError` on failure."""
        if not self.ok:
            raise ApiError(self.code, self.reasons)
        return self.value

    def to_dict(self) -> dict:
        """JSON-ready wire form; the gateway's HTTP bodies are exactly this.

        ``value`` is reduced through :func:`wire_value`, so the wire form
        of an entity payload is its own ``to_dict()`` output.
        """
        return {
            "ok": self.ok,
            "code": self.code.value,
            "reasons": list(self.reasons),
            "value": wire_value(self.value),
            "pushed_messages": self.pushed_messages,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Response":
        """Rebuild an envelope from its wire form.

        ``value`` stays in plain JSON shape (dicts/lists/primitives) —
        clients branch on ``code`` and read payload fields by key rather
        than getting entity classes rehydrated.
        """
        return cls(
            ok=bool(data["ok"]),
            code=ErrorCode(data["code"]),
            reasons=list(data.get("reasons") or []),
            value=data.get("value"),
            pushed_messages=int(data.get("pushed_messages") or 0),
        )


__all__ = ["ApiError", "ErrorCode", "Response", "wire_value"]
