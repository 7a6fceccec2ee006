"""Instruction set of the plug-in virtual machine.

A compact stack machine over 32-bit signed integers.  The ISA is
deliberately small — the paper's plug-ins (remote-control relays, signal
transformers) are tiny event handlers — but complete enough for real
control logic: arithmetic, bitwise ops, comparisons, branches, calls,
direct and indirect memory access, and port I/O syscalls mediated by the
PIRTE.

Each opcode carries a *fuel cost*; the interpreter charges fuel per
executed instruction, which is how the VM enforces the paper's
best-effort execution scheme (a runaway plug-in exhausts its activation
quota instead of starving the ECU).

An instruction is one opcode byte followed by a little-endian operand
of 0, 1, 2 or 4 bytes.  :func:`decode_at` is the one decoder of that
encoding: the interpreter's decode table, the disassembler, the
verifier's CFG sweep and the report listing all call it, and each turns
the defect it names (an illegal opcode, an operand running off the code
end) into its own trap, exception or finding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

# -- opcode values ---------------------------------------------------------

NOP = 0x00
HALT = 0x01
PUSH = 0x02
POP = 0x03
DUP = 0x04
SWAP = 0x05
OVER = 0x06

LOAD = 0x10
STORE = 0x11
LOADI = 0x12
STOREI = 0x13

ADD = 0x20
SUB = 0x21
MUL = 0x22
DIV = 0x23
MOD = 0x24
NEG = 0x25
AND = 0x26
OR = 0x27
XOR = 0x28
NOT = 0x29
SHL = 0x2A
SHR = 0x2B

EQ = 0x30
NE = 0x31
LT = 0x32
LE = 0x33
GT = 0x34
GE = 0x35

JMP = 0x40
JZ = 0x41
JNZ = 0x42
CALL = 0x43
RET = 0x44

RDPORT = 0x50
WRPORT = 0x51
AVAIL = 0x52
RECV = 0x53
EMIT = 0x54
TIME = 0x55


#: Operand kind -> (byte width, little-endian unpacker).
_OPERANDS = {
    None: (0, None),
    "u8": (1, struct.Struct("<B").unpack_from),
    "u16": (2, struct.Struct("<H").unpack_from),
    "i32": (4, struct.Struct("<i").unpack_from),
}


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    mnemonic: str
    opcode: int
    operand: Optional[str]  # None | "i32" | "u16" | "u8"
    fuel: int
    #: Encoded size in bytes (opcode + operand), set from ``operand``.
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", 1 + _OPERANDS[self.operand][0])


_SPECS = [
    OpSpec("NOP", NOP, None, 1),
    OpSpec("HALT", HALT, None, 1),
    OpSpec("PUSH", PUSH, "i32", 1),
    OpSpec("POP", POP, None, 1),
    OpSpec("DUP", DUP, None, 1),
    OpSpec("SWAP", SWAP, None, 1),
    OpSpec("OVER", OVER, None, 1),
    OpSpec("LOAD", LOAD, "u16", 2),
    OpSpec("STORE", STORE, "u16", 2),
    OpSpec("LOADI", LOADI, None, 3),
    OpSpec("STOREI", STOREI, None, 3),
    OpSpec("ADD", ADD, None, 1),
    OpSpec("SUB", SUB, None, 1),
    OpSpec("MUL", MUL, None, 4),
    OpSpec("DIV", DIV, None, 6),
    OpSpec("MOD", MOD, None, 6),
    OpSpec("NEG", NEG, None, 1),
    OpSpec("AND", AND, None, 1),
    OpSpec("OR", OR, None, 1),
    OpSpec("XOR", XOR, None, 1),
    OpSpec("NOT", NOT, None, 1),
    OpSpec("SHL", SHL, None, 1),
    OpSpec("SHR", SHR, None, 1),
    OpSpec("EQ", EQ, None, 1),
    OpSpec("NE", NE, None, 1),
    OpSpec("LT", LT, None, 1),
    OpSpec("LE", LE, None, 1),
    OpSpec("GT", GT, None, 1),
    OpSpec("GE", GE, None, 1),
    OpSpec("JMP", JMP, "u16", 2),
    OpSpec("JZ", JZ, "u16", 2),
    OpSpec("JNZ", JNZ, "u16", 2),
    OpSpec("CALL", CALL, "u16", 4),
    OpSpec("RET", RET, None, 2),
    OpSpec("RDPORT", RDPORT, "u8", 8),
    OpSpec("WRPORT", WRPORT, "u8", 8),
    OpSpec("AVAIL", AVAIL, "u8", 4),
    OpSpec("RECV", RECV, "u8", 8),
    OpSpec("EMIT", EMIT, None, 4),
    OpSpec("TIME", TIME, None, 2),
]

BY_MNEMONIC: dict[str, OpSpec] = {s.mnemonic: s for s in _SPECS}
BY_OPCODE: dict[int, OpSpec] = {s.opcode: s for s in _SPECS}

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    """Wrap an int to 32-bit two's-complement."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value > INT32_MAX else value


#: Defects :func:`decode_at` names.
ILLEGAL_OPCODE = "illegal opcode"
TRUNCATED_OPERAND = "truncated operand"


def decode_at(
    code: bytes, pc: int
) -> tuple[Optional[OpSpec], int, Optional[str]]:
    """Decode the instruction at ``pc`` (``0 <= pc < len(code)``).

    Returns ``(spec, operand, None)`` for a whole instruction, with
    operand 0 when the opcode takes none.  A defect is named instead:
    ``(None, 0, ILLEGAL_OPCODE)`` when ``code[pc]`` is no opcode, and
    ``(spec, 0, TRUNCATED_OPERAND)`` when the operand runs off the code
    end.  Any offset decodes, including one inside another instruction.
    """
    spec = BY_OPCODE.get(code[pc])
    if spec is None:
        return None, 0, ILLEGAL_OPCODE
    if pc + spec.size > len(code):
        return spec, 0, TRUNCATED_OPERAND
    unpack = _OPERANDS[spec.operand][1]
    if unpack is None:
        return spec, 0, None
    return spec, unpack(code, pc + 1)[0], None


__all__ = [n for n in dir() if n.isupper() and not n.startswith("_")] + [
    "OpSpec",
    "wrap32",
    "decode_at",
    "BY_MNEMONIC",
    "BY_OPCODE",
]
