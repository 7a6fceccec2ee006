"""Differential test: the decode-once VM against the reference interpreter.

``tests/vm_reference.py`` holds the decode-per-step interpreter the VM
replaced.  Both run the same generated programs (valid instructions,
illegal bytes, truncated tails, jumps into and past instructions) from
the same entry offsets, args, fuel budgets and memory sizes, and must
agree after every activation on the result or the exact trap, on every
counter and on every side effect.

Hypothesis supplies the random source; the programs are drawn from it
with plain ``random`` calls, which is what lets a few seconds cover
thousands of programs.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VmTrap
from repro.vm import isa
from repro.vm.loader import PluginBinary
from repro.vm.machine import NullBridge, Vm
from tests.vm_reference import Vm as ReferenceVm

NUM_PORTS = 4
INT32_EDGES = [isa.INT32_MIN, isa.INT32_MIN + 1, -1, 0, 1, isa.INT32_MAX]
OPCODES = sorted(isa.BY_OPCODE)
ILLEGAL_BYTES = sorted(set(range(256)) - set(isa.BY_OPCODE))
JUMPS = {isa.JMP, isa.JZ, isa.JNZ, isa.CALL}
#: Instructions that leave the operand stack deeper than they found it.
GROWING = [isa.PUSH, isa.DUP, isa.OVER, isa.LOAD, isa.RDPORT, isa.AVAIL,
           isa.RECV, isa.TIME]
#: Programs checked per Hypothesis example.
PROGRAMS = 10


class ScriptedBridge:
    """Logs port traffic; reads return values outside int32."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def _port(self, kind: str, index: int) -> None:
        if index >= NUM_PORTS:
            raise VmTrap(f"{kind} on port {index} outside 0..{NUM_PORTS - 1}")

    def _next(self, kind: str, index: int) -> int:
        self._port(kind, index)
        value = (len(self.log) * 0x9E3779B1 + index) % (1 << 34) - (1 << 33)
        self.log.append((kind, index, value))
        return value

    def read_port(self, index: int) -> int:
        return self._next("read", index)

    def pending(self, index: int) -> int:
        return self._next("pending", index)

    def receive(self, index: int) -> int:
        return self._next("receive", index)

    def write_port(self, index: int, value: int) -> None:
        self._port("write", index)
        self.log.append(("write", index, value))


def clock():
    """A time source stepping across the int32 range and beyond it."""
    now = [isa.INT32_MAX - 5]

    def tick() -> int:
        now[0] += 3
        return now[0]

    return tick


def small_or_edge(rng: random.Random) -> int:
    """Mostly a small int (an address, a shift, a divisor), else an edge."""
    if rng.random() < 0.25:
        return rng.choice(INT32_EDGES)
    return rng.randint(-4, 24)


def wide_int(rng: random.Random) -> int:
    """An activation argument, often outside int32."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rng.choice(INT32_EDGES)
    return rng.randint(-(1 << 40), 1 << 40)


def fuel_budget(rng: random.Random) -> int:
    """From below zero to enough for a loop to overflow the stack."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-1, 0, 1])
    if kind == 1:
        return rng.randint(2, 300)
    return 5_000


def instruction(rng: random.Random, opcodes=OPCODES) -> bytes:
    """One encoded instruction, its opcode drawn from ``opcodes``."""
    spec = isa.BY_OPCODE[rng.choice(opcodes)]
    if spec.operand == "i32":
        operand = struct.pack("<i", small_or_edge(rng))
    elif spec.operand == "u16":
        # Jump targets land inside, between and past the instructions
        # of a generated program; 0xFFFF is far past any of them.
        value = rng.randint(0, 160 if spec.opcode in JUMPS else 10)
        operand = struct.pack("<H", 0xFFFF if rng.random() < 0.05 else value)
    elif spec.operand == "u8":
        operand = bytes([rng.randint(0, NUM_PORTS + 1)])
    else:
        operand = b""
    return bytes([spec.opcode]) + operand


def chunk(rng: random.Random) -> bytes:
    """An illegal byte, one instruction, or one fed and observed.

    Most chunks push two operands before the instruction and EMIT after
    it, so that it finds operands and what it leaves is seen.
    """
    kind = rng.randrange(10)
    if kind == 0:
        return bytes([rng.choice(ILLEGAL_BYTES)])
    body = instruction(rng)
    if kind <= 6:
        push = [isa.PUSH]
        body = instruction(rng, push) + instruction(rng, push) + body
        body += bytes([isa.EMIT])
    return body


def program(rng: random.Random) -> tuple[bytes, list[int]]:
    """Code bytes and the offsets where its chunks start."""
    chunks = [chunk(rng) for __ in range(rng.randint(0, 10))]
    if rng.random() < 0.25:
        # Offset 0 repeats one growing instruction until the operand
        # stack overflows or the fuel runs out.
        chunks.insert(0, instruction(rng, GROWING) + bytes([isa.JMP, 0, 0]))
    if rng.random() < 0.5:
        chunks.append(bytes([isa.HALT]))
    starts, offset = [], 0
    for piece in chunks:
        starts.append(offset)
        offset += len(piece)
    code = b"".join(chunks)
    if rng.random() < 0.5:
        # A truncated tail: an operand-carrying opcode cut short.
        spec = isa.BY_OPCODE[rng.choice(
            [isa.PUSH, isa.LOAD, isa.JMP, isa.CALL, isa.RDPORT]
        )]
        code += bytes([spec.opcode]) + bytes(rng.randint(0, spec.size - 2))
    return code, starts


def outcome(vm, bridge, entry, args, budget):
    try:
        result = vm.activate(entry, bridge, args=args, fuel=budget)
        returned = ("ok", result.fuel_used, result.halted)
    except Exception as error:  # noqa: BLE001 - compared, never hidden
        returned = (type(error), str(error))
    return (
        returned,
        list(vm.memory),
        vm.traps,
        vm.total_fuel_used,
        vm.activations,
        list(vm.emitted),
        list(bridge.log),
    )


def check_program(rng: random.Random) -> None:
    code, starts = program(rng)
    entries = {}
    for index in range(rng.randint(1, 3)):
        # Chunk starts, or anywhere, including inside an instruction.
        anywhere = rng.randint(0, max(len(code) - 1, 0))
        entries[f"e{index}"] = (
            rng.choice(starts) if starts and rng.random() < 0.5 else anywhere
        )
    binary = PluginBinary(
        code=code, entries=entries, mem_hint=rng.randint(0, 8), raw=b""
    )
    options = dict(
        memory_cells=None if rng.random() < 0.5 else rng.randint(0, 8),
        fuel_per_activation=fuel_budget(rng),
    )
    vm = Vm(binary, time_source=clock(), **options)
    reference = ReferenceVm(binary, time_source=clock(), **options)
    bridge, reference_bridge = ScriptedBridge(), ScriptedBridge()
    for __ in range(rng.randint(1, 3)):
        entry = rng.choice(sorted(entries))
        args = tuple(wide_int(rng) for __ in range(rng.randint(0, 3)))
        budget = None if rng.random() < 0.3 else fuel_budget(rng)
        got = outcome(vm, bridge, entry, args, budget)
        want = outcome(reference, reference_bridge, entry, args, budget)
        assert got == want, (
            f"code={code.hex()} entries={entries} {options} "
            f"entry={entry} args={args} fuel={budget}"
        )


@settings(max_examples=1_000, deadline=None)
@given(rng=st.randoms(use_true_random=True))
def test_decode_once_vm_matches_reference(rng):
    for __ in range(PROGRAMS):
        check_program(rng)


def test_args_beyond_max_stack_overflow_before_any_instruction():
    # The one input on which the interpreters differ on purpose: the
    # reference pushed any number of args; the VM never holds more
    # than MAX_STACK values.  The PIRTE passes two.
    binary = PluginBinary(
        code=bytes([isa.HALT]), entries={"e": 0}, mem_hint=0, raw=b""
    )
    vm = Vm(binary)
    with pytest.raises(VmTrap, match="^operand stack overflow$"):
        vm.activate("e", NullBridge(), args=(0,) * (Vm.MAX_STACK + 1))
    assert (vm.activations, vm.traps, vm.total_fuel_used) == (1, 1, 0)
    assert vm.activate("e", NullBridge(), args=(0,) * Vm.MAX_STACK).halted
