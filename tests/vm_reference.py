"""The decode-per-step interpreter, kept as the reference for the VM.

:class:`Vm` below is the plug-in interpreter as it was before
:mod:`repro.vm.machine` moved to a decode-once table.  It decodes every
instruction again each time it executes it, which makes it slow and
obviously faithful to the ISA.  ``tests/test_vm_differential.py`` runs
generated programs on both interpreters and requires the same results,
traps, trap messages and side effects.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import FuelExhaustedError, VmMemoryError, VmTrap
from repro.vm import isa
from repro.vm.isa import BY_OPCODE, wrap32
from repro.vm.loader import PluginBinary
from repro.vm.machine import ActivationResult, PortBridge


class Vm:
    """One virtual machine instance executing one plug-in binary."""

    MAX_STACK = 256
    MAX_CALL_DEPTH = 32

    def __init__(
        self,
        binary: PluginBinary,
        memory_cells: Optional[int] = None,
        fuel_per_activation: int = 10_000,
        time_source=None,
    ) -> None:
        self.binary = binary
        cells = binary.mem_hint if memory_cells is None else memory_cells
        if cells < 0:
            raise VmMemoryError(f"negative memory size {cells}")
        self.memory = [0] * cells
        self.fuel_per_activation = fuel_per_activation
        self._time_source = time_source or (lambda: 0)
        self.total_fuel_used = 0
        self.activations = 0
        self.traps = 0
        #: Values emitted via the EMIT instruction (diagnostics channel).
        self.emitted: list[int] = []

    # -- helpers ----------------------------------------------------------

    def _trap(self, message: str) -> VmTrap:
        self.traps += 1
        return VmTrap(message)

    def _check_mem(self, address: int) -> int:
        if not 0 <= address < len(self.memory):
            self.traps += 1
            raise VmMemoryError(
                f"memory access at {address} outside 0..{len(self.memory) - 1}"
            )
        return address

    # -- execution ---------------------------------------------------------

    def activate(
        self,
        entry: str,
        bridge: PortBridge,
        args: tuple[int, ...] = (),
        fuel: Optional[int] = None,
    ) -> ActivationResult:
        """Run one activation of ``entry`` with ``args`` pre-pushed.

        Raises :class:`FuelExhaustedError` when the budget runs out and
        :class:`VmTrap`/:class:`VmMemoryError` on faults.  State in
        ``self.memory`` persists across activations; the operand stack
        does not.
        """
        code = self.binary.code
        pc = self.binary.entry_offset(entry)
        stack: list[int] = [wrap32(a) for a in args]
        calls: list[int] = []
        budget = self.fuel_per_activation if fuel is None else fuel
        used = 0
        self.activations += 1

        def pop() -> int:
            if not stack:
                raise self._trap("operand stack underflow")
            return stack.pop()

        def push(value: int) -> None:
            if len(stack) >= self.MAX_STACK:
                raise self._trap("operand stack overflow")
            stack.append(wrap32(value))

        while True:
            if pc >= len(code):
                raise self._trap(f"program counter {pc} ran off code end")
            opcode = code[pc]
            spec = BY_OPCODE.get(opcode)
            if spec is None:
                raise self._trap(f"illegal opcode {opcode:#04x} at {pc}")
            used += spec.fuel
            if used > budget:
                self.total_fuel_used += used
                self.traps += 1
                raise FuelExhaustedError(
                    f"fuel budget of {budget} exhausted at pc={pc}"
                )
            if pc + spec.size > len(code):
                raise self._trap(
                    f"truncated {spec.mnemonic} at {pc}: operand runs "
                    f"off code end"
                )
            operand = 0
            if spec.operand == "i32":
                operand = struct.unpack_from("<i", code, pc + 1)[0]
            elif spec.operand == "u16":
                operand = struct.unpack_from("<H", code, pc + 1)[0]
            elif spec.operand == "u8":
                operand = code[pc + 1]
            next_pc = pc + spec.size

            if opcode == isa.HALT:
                self.total_fuel_used += used
                return ActivationResult(used, halted=True)
            elif opcode == isa.NOP:
                pass
            elif opcode == isa.PUSH:
                push(operand)
            elif opcode == isa.POP:
                pop()
            elif opcode == isa.DUP:
                value = pop()
                push(value)
                push(value)
            elif opcode == isa.SWAP:
                a, b = pop(), pop()
                push(a)
                push(b)
            elif opcode == isa.OVER:
                a, b = pop(), pop()
                push(b)
                push(a)
                push(b)
            elif opcode == isa.LOAD:
                push(self.memory[self._check_mem(operand)])
            elif opcode == isa.STORE:
                self.memory[self._check_mem(operand)] = pop()
            elif opcode == isa.LOADI:
                push(self.memory[self._check_mem(pop())])
            elif opcode == isa.STOREI:
                address = pop()
                self.memory[self._check_mem(address)] = pop()
            elif opcode == isa.ADD:
                push(pop() + pop())
            elif opcode == isa.SUB:
                a = pop()
                push(pop() - a)
            elif opcode == isa.MUL:
                push(pop() * pop())
            elif opcode == isa.DIV:
                a = pop()
                if a == 0:
                    raise self._trap("division by zero")
                b = pop()
                push(int(b / a))  # C-style truncation
            elif opcode == isa.MOD:
                a = pop()
                if a == 0:
                    raise self._trap("modulo by zero")
                b = pop()
                push(b - int(b / a) * a)
            elif opcode == isa.NEG:
                push(-pop())
            elif opcode == isa.AND:
                push(pop() & pop())
            elif opcode == isa.OR:
                push(pop() | pop())
            elif opcode == isa.XOR:
                push(pop() ^ pop())
            elif opcode == isa.NOT:
                push(~pop())
            elif opcode == isa.SHL:
                a = pop()
                push(pop() << (a & 31))
            elif opcode == isa.SHR:
                a = pop()
                push(pop() >> (a & 31))
            elif opcode == isa.EQ:
                push(1 if pop() == pop() else 0)
            elif opcode == isa.NE:
                push(1 if pop() != pop() else 0)
            elif opcode == isa.LT:
                a = pop()
                push(1 if pop() < a else 0)
            elif opcode == isa.LE:
                a = pop()
                push(1 if pop() <= a else 0)
            elif opcode == isa.GT:
                a = pop()
                push(1 if pop() > a else 0)
            elif opcode == isa.GE:
                a = pop()
                push(1 if pop() >= a else 0)
            elif opcode == isa.JMP:
                next_pc = operand
            elif opcode == isa.JZ:
                if pop() == 0:
                    next_pc = operand
            elif opcode == isa.JNZ:
                if pop() != 0:
                    next_pc = operand
            elif opcode == isa.CALL:
                if len(calls) >= self.MAX_CALL_DEPTH:
                    raise self._trap("call stack overflow")
                calls.append(next_pc)
                next_pc = operand
            elif opcode == isa.RET:
                if not calls:
                    # RET at depth zero ends the activation cleanly.
                    self.total_fuel_used += used
                    return ActivationResult(used, halted=False)
                next_pc = calls.pop()
            elif opcode == isa.RDPORT:
                push(bridge.read_port(operand))
            elif opcode == isa.WRPORT:
                bridge.write_port(operand, pop())
            elif opcode == isa.AVAIL:
                push(bridge.pending(operand))
            elif opcode == isa.RECV:
                push(bridge.receive(operand))
            elif opcode == isa.EMIT:
                self.emitted.append(pop())
            elif opcode == isa.TIME:
                push(wrap32(self._time_source()))
            else:  # pragma: no cover - all opcodes handled above
                raise self._trap(f"unhandled opcode {opcode:#04x}")
            pc = next_pc
