"""The verifier entry points: static checks + analyses over one binary.

:func:`verify_binary` is what the app store's upload gate calls; it
combines

1. the tolerant decode (illegal opcodes, truncated instructions),
2. static per-instruction operand checks (jump/CALL targets on
   instruction boundaries, constant LOAD/STORE addresses within the
   memory pool, port indices within the declared virtual ports,
   fall-off-the-end paths, entry-point boundaries),
3. the abstract-interpretation stack analysis per entry point, and
4. worst-case fuel estimation per entry point against the activation
   quota,

into one sorted :class:`~repro.vm.verify.report.VerificationReport`.

The analyses are conservative in the safe direction: an error-tier
finding means executing that instruction traps (or the stream cannot be
decoded at all); a *clean* report (no errors, no warnings) means no
activation of any entry point can trap with stack underflow/overflow,
call-stack overflow, an illegal opcode, a memory fault, or a runaway
program counter — the property the differential test suite checks
against the live interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import BinaryFormatError
from repro.vm import isa
from repro.vm.loader import PluginBinary, unpack

from repro.vm.verify.cfg import TERMINAL_OPCODES, build_cfg
from repro.vm.verify.fuel import analyze_fuel
from repro.vm.verify.report import (
    Finding,
    Severity,
    VerificationReport,
    KIND_CONTAINER,
    KIND_DIV_BY_ZERO,
    KIND_ENTRY_TARGET,
    KIND_FALL_OFF_END,
    KIND_FUEL_BUDGET,
    KIND_INDIRECT_MEMORY,
    KIND_JUMP_TARGET,
    KIND_MEMORY_BOUNDS,
    KIND_PORT_BOUNDS,
)
from repro.vm.verify.stack import analyze_stack

#: Entry-point argument counts the PIRTE pre-pushes (see
#: ``repro.core.pirte``): on_message receives (local_index, value).
DEFAULT_ENTRY_ARGS: Mapping[str, int] = {
    "on_init": 0,
    "on_message": 2,
    "on_timer": 0,
}

_PORT_OPCODES = frozenset({isa.RDPORT, isa.WRPORT, isa.AVAIL, isa.RECV})


@dataclass(frozen=True)
class VerifyLimits:
    """Deployment-context limits the binary is verified against.

    ``memory_cells``/``num_ports`` default to "take it from the
    binary / skip the check" so the CLI can verify a bare binary;
    the app store fills both from the :class:`PluginDescriptor`.
    """

    max_stack: int = 256  # Vm.MAX_STACK
    max_call_depth: int = 32  # Vm.MAX_CALL_DEPTH
    fuel_per_activation: int = 20_000  # PluginSwcSpec default
    memory_cells: Optional[int] = None  # None -> binary.mem_hint
    num_ports: Optional[int] = None  # None -> skip port checks
    entry_args: Optional[Mapping[str, int]] = None  # None -> defaults
    state_budget: int = 50_000

    def resolved_entry_args(self) -> Mapping[str, int]:
        return DEFAULT_ENTRY_ARGS if self.entry_args is None else self.entry_args


def verify_binary(
    binary: PluginBinary, limits: VerifyLimits = VerifyLimits()
) -> VerificationReport:
    """Statically verify one parsed plug-in binary."""
    code = binary.code
    memory_cells = (
        binary.mem_hint if limits.memory_cells is None else limits.memory_cells
    )
    entry_args = limits.resolved_entry_args()
    report = VerificationReport(
        code_size=len(code),
        limits={
            "max_stack": limits.max_stack,
            "max_call_depth": limits.max_call_depth,
            "fuel_per_activation": limits.fuel_per_activation,
            "memory_cells": memory_cells,
            "num_ports": limits.num_ports,
        },
    )
    cfg = build_cfg(code)
    report.instruction_count = len(cfg.instructions)
    report.findings.extend(cfg.findings)
    seen = {(f.kind, f.pc) for f in report.findings}

    def add(finding: Finding) -> None:
        key = (finding.kind, finding.pc)
        if key not in seen:
            seen.add(key)
            report.findings.append(finding)

    # -- static per-instruction operand checks ------------------------------

    for ins in cfg.instructions:
        opcode = ins.opcode
        if opcode in (isa.LOAD, isa.STORE) and ins.operand >= memory_cells:
            add(
                Finding(
                    Severity.ERROR,
                    KIND_MEMORY_BOUNDS,
                    f"{ins.mnemonic} address {ins.operand} outside the "
                    f"{memory_cells}-cell memory pool",
                    pc=ins.offset,
                )
            )
        elif opcode in (isa.LOADI, isa.STOREI):
            add(
                Finding(
                    Severity.WARN,
                    KIND_INDIRECT_MEMORY,
                    f"{ins.mnemonic} address comes from the stack and "
                    f"cannot be bounds-checked statically",
                    pc=ins.offset,
                )
            )
        elif opcode in _PORT_OPCODES and limits.num_ports is not None:
            if ins.operand >= limits.num_ports:
                add(
                    Finding(
                        Severity.ERROR,
                        KIND_PORT_BOUNDS,
                        f"{ins.mnemonic} port {ins.operand} but the plug-in "
                        f"declares only {limits.num_ports} port(s) "
                        f"(indices 0..{limits.num_ports - 1})",
                        pc=ins.offset,
                    )
                )
        elif opcode in (isa.DIV, isa.MOD):
            add(
                Finding(
                    Severity.INFO,
                    KIND_DIV_BY_ZERO,
                    f"{ins.mnemonic} traps if the divisor is zero at "
                    f"runtime (best-effort contract tolerates it)",
                    pc=ins.offset,
                )
            )
        elif opcode in (isa.JMP, isa.JZ, isa.JNZ, isa.CALL):
            if cfg.at(ins.operand) is None:
                add(
                    Finding(
                        Severity.ERROR,
                        KIND_JUMP_TARGET,
                        f"{ins.mnemonic} target 0x{ins.operand:04x} is not "
                        f"an instruction boundary",
                        pc=ins.offset,
                    )
                )

    # A decoded stream that ends in a fall-through instruction runs the
    # program counter off the code end.  Only meaningful when the sweep
    # consumed the whole stream (a truncated tail already errored).
    if cfg.decoded_all and cfg.instructions:
        last = cfg.instructions[-1]
        if last.opcode not in TERMINAL_OPCODES:
            add(
                Finding(
                    Severity.ERROR,
                    KIND_FALL_OFF_END,
                    f"execution can fall through {last.mnemonic} off the "
                    f"end of the code stream",
                    pc=last.offset,
                )
            )

    # -- per-entry analyses -------------------------------------------------

    for name in sorted(binary.entries):
        offset = binary.entries[name]
        if cfg.at(offset) is None:
            add(
                Finding(
                    Severity.ERROR,
                    KIND_ENTRY_TARGET,
                    f"entry offset 0x{offset:04x} is not an instruction "
                    f"boundary",
                    pc=offset,
                    entry=name,
                )
            )
            report.entry_fuel[name] = None
            continue
        for finding in analyze_stack(
            cfg,
            name,
            offset,
            entry_depth=entry_args.get(name, 0),
            max_stack=limits.max_stack,
            max_call_depth=limits.max_call_depth,
            state_budget=limits.state_budget,
        ):
            add(finding)
        bound, fuel_findings = analyze_fuel(cfg, name, offset)
        for finding in fuel_findings:
            add(finding)
        report.entry_fuel[name] = bound
        if bound is not None and bound > limits.fuel_per_activation:
            add(
                Finding(
                    Severity.WARN,
                    KIND_FUEL_BUDGET,
                    f"worst-case fuel {bound} exceeds the activation "
                    f"quota of {limits.fuel_per_activation}",
                    pc=offset,
                    entry=name,
                )
            )

    return report.sort()


def verify_container(
    raw: bytes, limits: VerifyLimits = VerifyLimits()
) -> VerificationReport:
    """Verify a packed container; malformed containers are error-tier."""
    try:
        binary = unpack(raw)
    except BinaryFormatError as error:
        report = VerificationReport(code_size=len(raw))
        report.findings.append(
            Finding(Severity.ERROR, KIND_CONTAINER, str(error))
        )
        return report
    return verify_binary(binary, limits)


__all__ = [
    "DEFAULT_ENTRY_ARGS",
    "VerifyLimits",
    "verify_binary",
    "verify_container",
]
