"""Typed findings and reports of the static plug-in verifier.

A :class:`VerificationReport` is the single artifact every consumer of
the verifier handles: the upload gate attaches it to rejection
envelopes, the database persists it per APP, the gateway serves it
over HTTP (``to_dict`` is the wire form), and the CLI renders it as a
disassembly-annotated listing.

Severity tiers:

* **error** — executing the flagged instruction is guaranteed to trap
  (or the code stream cannot even be decoded).  Error-tier reports are
  rejected by :meth:`~repro.server.services.appstore.AppStore.upload`.
* **warn** — a trap is possible on some path, or the analysis had to
  give up a guarantee (indirect addressing, recursion, budget).  A
  report with warnings is accepted but not *clean*: the differential
  test suite's "clean verdict implies no runtime trap" contract only
  covers reports without errors or warnings.
* **info** — facts worth surfacing that imply no trap by themselves
  (loop back-edges with their per-iteration fuel, possible division by
  zero, which the paper's best-effort contract tolerates at runtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.vm.isa import decode_at


class Severity(enum.Enum):
    """Finding tier; ordering is ERROR > WARN > INFO."""

    ERROR = "error"
    WARN = "warn"
    INFO = "info"


#: Finding kinds the analyzer emits (stable wire identifiers).
KIND_CONTAINER = "container_format"
KIND_ILLEGAL_OPCODE = "illegal_opcode"
KIND_TRUNCATED = "truncated_instruction"
KIND_JUMP_TARGET = "jump_target"
KIND_ENTRY_TARGET = "entry_target"
KIND_FALL_OFF_END = "fall_off_end"
KIND_STACK_UNDERFLOW = "stack_underflow"
KIND_MAYBE_UNDERFLOW = "stack_maybe_underflow"
KIND_STACK_OVERFLOW = "stack_overflow"
KIND_MAYBE_OVERFLOW = "stack_maybe_overflow"
KIND_CALL_DEPTH = "call_depth"
KIND_ANALYSIS_BUDGET = "analysis_budget"
KIND_MEMORY_BOUNDS = "memory_bounds"
KIND_INDIRECT_MEMORY = "indirect_memory"
KIND_PORT_BOUNDS = "port_bounds"
KIND_FUEL_BUDGET = "fuel_budget"
KIND_FUEL_LOOP = "fuel_loop"
KIND_RECURSION = "recursion"
KIND_DIV_BY_ZERO = "div_by_zero"


@dataclass(frozen=True)
class Finding:
    """One verification finding, optionally anchored at a code offset."""

    severity: Severity
    kind: str
    message: str
    pc: Optional[int] = None
    entry: str = ""

    def describe(self) -> str:
        location = f" at 0x{self.pc:04x}" if self.pc is not None else ""
        origin = f" (entry {self.entry!r})" if self.entry else ""
        return (
            f"{self.severity.value}[{self.kind}]{location}: "
            f"{self.message}{origin}"
        )

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "kind": self.kind,
            "message": self.message,
            "pc": self.pc,
            "entry": self.entry,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            severity=Severity(data["severity"]),
            kind=data["kind"],
            message=data["message"],
            pc=data.get("pc"),
            entry=data.get("entry") or "",
        )


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARN: 1, Severity.INFO: 2}


@dataclass
class VerificationReport:
    """Outcome of statically verifying one plug-in binary.

    ``entry_fuel`` maps each entry point to its worst-case fuel bound
    (exact on call-free acyclic code, a safe upper bound otherwise) or
    ``None`` when a loop or recursion makes fuel unbounded.
    """

    code_size: int = 0
    instruction_count: int = 0
    findings: list[Finding] = field(default_factory=list)
    entry_fuel: dict[str, Optional[int]] = field(default_factory=dict)
    limits: dict = field(default_factory=dict)

    # -- verdicts ------------------------------------------------------------

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARN]

    @property
    def infos(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """Deployable: no guaranteed-trap (error-tier) findings."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """Proven trap-free: no errors AND no warnings.

        This is the verdict the differential property suite keys on:
        a clean binary never traps with stack underflow/overflow,
        illegal opcodes, or memory faults at runtime, and its measured
        fuel never exceeds the static bound.
        """
        return not self.errors and not self.warnings

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "rejected"
        return "clean" if self.clean else "ok"

    def sort(self) -> "VerificationReport":
        """Order findings by severity, then code offset."""
        self.findings.sort(
            key=lambda f: (
                _SEVERITY_ORDER[f.severity],
                f.pc if f.pc is not None else -1,
                f.kind,
                f.entry,
            )
        )
        return self

    def summary(self) -> str:
        return (
            f"{self.verdict}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )

    # -- wire form -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "ok": self.ok,
            "clean": self.clean,
            "code_size": self.code_size,
            "instruction_count": self.instruction_count,
            "findings": [f.to_dict() for f in self.findings],
            "entry_fuel": dict(self.entry_fuel),
            "limits": dict(self.limits),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            code_size=int(data.get("code_size") or 0),
            instruction_count=int(data.get("instruction_count") or 0),
            findings=[Finding.from_dict(f) for f in data.get("findings", [])],
            entry_fuel=dict(data.get("entry_fuel") or {}),
            limits=dict(data.get("limits") or {}),
        )

    # -- rendering -----------------------------------------------------------

    def render(self, binary=None) -> str:
        """Human-readable report, disassembly-annotated when possible.

        With ``binary`` (a :class:`~repro.vm.loader.PluginBinary`), the
        listing interleaves findings under the instructions they flag;
        without one, findings are listed after the summary block.
        """
        lines = [f"; verification {self.summary()}"]
        for entry in sorted(self.entry_fuel):
            bound = self.entry_fuel[entry]
            budget = self.limits.get("fuel_per_activation")
            rendered = "unbounded (loop)" if bound is None else str(bound)
            suffix = f" / budget {budget}" if budget is not None else ""
            lines.append(f"; entry {entry}: worst-case fuel {rendered}{suffix}")
        by_pc: dict[int, list[Finding]] = {}
        floating: list[Finding] = []
        for finding in self.findings:
            if finding.pc is None:
                floating.append(finding)
            else:
                by_pc.setdefault(finding.pc, []).append(finding)
        if binary is not None and binary.code:
            entries_by_offset: dict[int, list[str]] = {}
            for name, offset in binary.entries.items():
                entries_by_offset.setdefault(offset, []).append(name)
            lines.append(
                f"; code: {self.code_size} bytes, "
                f"{self.instruction_count} instruction(s), "
                f"mem_hint={binary.mem_hint} cells"
            )
            for offset, rendered in _safe_listing(binary.code):
                for name in sorted(entries_by_offset.get(offset, [])):
                    lines.append(f".entry {name}")
                lines.append(f"0x{offset:04x}    {rendered}")
                for finding in by_pc.pop(offset, []):
                    lines.append(f"          ^ {finding.describe()}")
            # Findings at offsets the listing never reached (mid-
            # instruction jump targets, truncated tails).
            for offset in sorted(by_pc):
                floating.extend(by_pc[offset])
        else:
            floating = list(self.findings)
        for finding in floating:
            lines.append(f"; {finding.describe()}")
        return "\n".join(lines) + "\n"


def _safe_listing(code: bytes):
    """Linear ``(offset, text)`` listing that survives malformed tails."""
    pc = 0
    while pc < len(code):
        spec, operand, defect = decode_at(code, pc)
        if spec is None:
            yield pc, f".byte 0x{code[pc]:02x}  ; illegal opcode"
            return
        if defect is not None:
            yield pc, f"{spec.mnemonic} <truncated>"
            return
        if spec.operand is None:
            yield pc, spec.mnemonic
        else:
            yield pc, f"{spec.mnemonic} {operand}"
        pc += spec.size


__all__ = [
    "Severity",
    "Finding",
    "VerificationReport",
    "KIND_CONTAINER",
    "KIND_ILLEGAL_OPCODE",
    "KIND_TRUNCATED",
    "KIND_JUMP_TARGET",
    "KIND_ENTRY_TARGET",
    "KIND_FALL_OFF_END",
    "KIND_STACK_UNDERFLOW",
    "KIND_MAYBE_UNDERFLOW",
    "KIND_STACK_OVERFLOW",
    "KIND_MAYBE_OVERFLOW",
    "KIND_CALL_DEPTH",
    "KIND_ANALYSIS_BUDGET",
    "KIND_MEMORY_BOUNDS",
    "KIND_INDIRECT_MEMORY",
    "KIND_PORT_BOUNDS",
    "KIND_FUEL_BUDGET",
    "KIND_FUEL_LOOP",
    "KIND_RECURSION",
    "KIND_DIV_BY_ZERO",
]
