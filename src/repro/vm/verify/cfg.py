"""Tolerant code-stream decoding and control-flow graph construction.

Unlike :func:`repro.vm.disasm.decode_all`, which raises on the first
malformed byte, the verifier's decoder records the defect as a finding
and keeps whatever prefix decoded cleanly — the analyzer still checks
everything reachable in that prefix, and the report shows the user both
the structural defect and any semantic ones.

The VM executes a strictly linear encoding (``next_pc = pc + size``
except for taken branches), so a single linear sweep from offset 0
enumerates every instruction boundary; jump targets are validated
against that boundary set rather than discovered by recursive descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vm import isa
from repro.vm.isa import OpSpec, decode_at

from repro.vm.verify.report import (
    Finding,
    Severity,
    KIND_ILLEGAL_OPCODE,
    KIND_TRUNCATED,
)

#: Opcodes that transfer control via their u16 operand.
JUMP_OPCODES = frozenset({isa.JMP, isa.JZ, isa.JNZ, isa.CALL})

#: Opcodes after which execution never falls through to ``pc + size``.
TERMINAL_OPCODES = frozenset({isa.HALT, isa.JMP, isa.RET})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction plus its static successor set."""

    offset: int
    spec: OpSpec
    operand: int

    @property
    def opcode(self) -> int:
        return self.spec.opcode

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def next_offset(self) -> int:
        return self.offset + self.spec.size

    def successors(self) -> tuple[int, ...]:
        """Static successor offsets within the same frame.

        CALL's successor is its *return continuation* — the callee body
        is explored interprocedurally by the stack/fuel analyses, not
        flattened into this edge set.  RET and HALT have none.
        """
        opcode = self.opcode
        if opcode in (isa.HALT, isa.RET):
            return ()
        if opcode == isa.JMP:
            return (self.operand,)
        if opcode in (isa.JZ, isa.JNZ):
            return (self.next_offset, self.operand)
        return (self.next_offset,)


@dataclass
class Cfg:
    """Decoded instruction stream of one plug-in binary."""

    code: bytes
    instructions: list[Instruction]
    by_offset: dict[int, Instruction]
    findings: list[Finding]

    @property
    def decoded_all(self) -> bool:
        """True when the sweep consumed every byte without a defect."""
        return not self.findings

    def at(self, offset: int) -> Optional[Instruction]:
        return self.by_offset.get(offset)


def build_cfg(code: bytes) -> Cfg:
    """Linear-sweep decode of ``code``, recording structural defects.

    The sweep stops at the first illegal or truncated instruction: the
    bytes past it have no reliable boundaries, so analyzing them would
    only manufacture noise.  The defect itself is an error-tier finding
    and fails verification on its own.
    """
    instructions: list[Instruction] = []
    findings: list[Finding] = []
    pc = 0
    while pc < len(code):
        spec, operand, defect = decode_at(code, pc)
        if spec is None:
            findings.append(
                Finding(
                    Severity.ERROR,
                    KIND_ILLEGAL_OPCODE,
                    f"illegal opcode 0x{code[pc]:02x}",
                    pc=pc,
                )
            )
            break
        if defect is not None:
            findings.append(
                Finding(
                    Severity.ERROR,
                    KIND_TRUNCATED,
                    f"{spec.mnemonic} needs {spec.size} byte(s) but only "
                    f"{len(code) - pc} remain",
                    pc=pc,
                )
            )
            break
        instructions.append(Instruction(pc, spec, operand))
        pc += spec.size
    return Cfg(
        code=code,
        instructions=instructions,
        by_offset={ins.offset: ins for ins in instructions},
        findings=findings,
    )


__all__ = ["Instruction", "Cfg", "build_cfg", "JUMP_OPCODES", "TERMINAL_OPCODES"]
