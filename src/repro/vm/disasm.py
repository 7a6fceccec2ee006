"""Disassembler for plug-in bytecode.

Turns binary containers back into readable listings — the debugging
counterpart of the assembler, used by diagnostics tooling and tests
(assemble -> pack -> unpack -> disassemble round-trips are part of the
property suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BinaryFormatError
from repro.vm.isa import decode_at
from repro.vm.loader import PluginBinary


@dataclass(frozen=True)
class DecodedInstruction:
    """One decoded instruction at a code offset."""

    offset: int
    mnemonic: str
    operand: int | None

    def render(self) -> str:
        if self.operand is None:
            return self.mnemonic
        return f"{self.mnemonic} {self.operand}"


def decode_all(code: bytes) -> list[DecodedInstruction]:
    """Linearly decode a code section; raises on malformed streams."""
    out: list[DecodedInstruction] = []
    pc = 0
    while pc < len(code):
        spec, operand, defect = decode_at(code, pc)
        if spec is None:
            raise BinaryFormatError(
                f"illegal opcode {code[pc]:#04x} at offset {pc}"
            )
        if defect is not None:
            raise BinaryFormatError(
                f"truncated {spec.mnemonic} at offset {pc}"
            )
        out.append(DecodedInstruction(
            pc, spec.mnemonic, None if spec.operand is None else operand
        ))
        pc += spec.size
    return out


def disassemble(binary: PluginBinary) -> str:
    """Human-readable listing with entry-point labels."""
    entries_by_offset: dict[int, list[str]] = {}
    for name, offset in binary.entries.items():
        entries_by_offset.setdefault(offset, []).append(name)
    lines = [
        f"; plug-in binary: {binary.size} bytes, "
        f"mem_hint={binary.mem_hint} cells"
    ]
    for instruction in decode_all(binary.code):
        for entry in sorted(entries_by_offset.get(instruction.offset, [])):
            lines.append(f".entry {entry}")
        lines.append(f"    {instruction.render()}")
    return "\n".join(lines) + "\n"


__all__ = ["DecodedInstruction", "decode_all", "disassemble"]
