"""The plug-in virtual machine interpreter.

Executes :class:`~repro.vm.loader.PluginBinary` code under strict
resource quotas:

* **fuel** — every instruction costs fuel (see the ISA cost table); an
  activation that exhausts its fuel budget traps with
  :class:`FuelExhaustedError`.  The PIRTE catches the trap and the
  plug-in simply loses the rest of its activation — the built-in
  software is unaffected, which is the paper's best-effort contract.
* **memory** — the cell array is allocated once at load time from the
  plug-in SW-C's memory pool; out-of-bounds access traps.
* **stack depth** — bounded operand and call stacks.

Each code offset is decoded at most once per :class:`Vm`.  The first
time an activation reaches an offset, :func:`~repro.vm.isa.decode_at`
turns the bytes there into an ``(opcode, operand, next_pc, fuel)``
entry of the instance's decode table; every later execution of that
offset reads the entry.  Decoding is lazy, so installing a plug-in
decodes nothing, and it starts wherever control arrives, so a jump into
the middle of an instruction runs the bytes found there.  A program
counter past the code end, an illegal opcode and a truncated operand
become entries that trap when reached, in the order a decode-per-step
interpreter meets them: the first two before any fuel is charged, the
last after.

Port I/O goes through a :class:`PortBridge` provided by the PIRTE, so
the VM itself knows nothing about SW-C ports, virtual ports, or routing.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.errors import FuelExhaustedError, VmMemoryError, VmTrap
from repro.vm.isa import (
    ADD, AND, AVAIL, CALL, DIV, DUP, EMIT, EQ, GE, GT, HALT, JMP, JNZ, JZ,
    LE, LOAD, LOADI, LT, MOD, MUL, NE, NEG, NOP, OR, OVER, POP, PUSH,
    RDPORT, RECV, RET, SHL, SHR, STORE, STOREI, SUB, SWAP, TIME, WRPORT,
    XOR, INT32_MAX, INT32_MIN, decode_at, wrap32,
)
from repro.vm.loader import PluginBinary

#: Decode-table opcode of an entry that traps when reached; its operand
#: is the trap message.  It costs no fuel when the fault comes before
#: the fuel charge (off the code end, illegal opcode).  It sorts after
#: every real opcode, so dispatch reaches it last.
_TRAP = 0x100

#: Arithmetic and comparison opcodes that pop two operands, push one.
_BINARY = frozenset(
    {ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, EQ, NE, LT, LE, GT, GE}
)


class PortBridge(Protocol):
    """The PIRTE-facing port interface the VM calls into."""

    def read_port(self, index: int) -> int:
        """Latest value on plug-in port ``index`` (0 if never written)."""
        ...

    def write_port(self, index: int, value: int) -> None:
        """Emit ``value`` on plug-in port ``index``."""
        ...

    def pending(self, index: int) -> int:
        """Queued unread values on port ``index``."""
        ...

    def receive(self, index: int) -> int:
        """Pop the oldest queued value (0 when empty)."""
        ...


class NullBridge:
    """A bridge that swallows writes; used for standalone VM tests."""

    def __init__(self) -> None:
        self.written: list[tuple[int, int]] = []
        self.values: dict[int, int] = {}

    def read_port(self, index: int) -> int:
        return self.values.get(index, 0)

    def write_port(self, index: int, value: int) -> None:
        self.written.append((index, value))
        self.values[index] = value

    def pending(self, index: int) -> int:
        return 0

    def receive(self, index: int) -> int:
        return 0


class ActivationResult:
    """Outcome of one VM activation."""

    def __init__(self, fuel_used: int, halted: bool) -> None:
        self.fuel_used = fuel_used
        self.halted = halted

    def __repr__(self) -> str:
        return f"<ActivationResult fuel={self.fuel_used} halted={self.halted}>"


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
        #: Code offset -> ``(opcode, operand, next_pc, fuel)``, filled the
        #: first time an activation reaches the offset.
        self._decoded: dict[int, tuple] = {}

    # -- helpers ----------------------------------------------------------

    def _trap(self, message: str) -> VmTrap:
        self.traps += 1
        return VmTrap(message)

    def _memory_error(self, address: int, cells: int) -> VmMemoryError:
        self.traps += 1
        return VmMemoryError(
            f"memory access at {address} outside 0..{cells - 1}"
        )

    def _decode(self, pc: int) -> tuple:
        """Decode the instruction at ``pc`` into its table entry."""
        code = self.binary.code
        if pc >= len(code):
            entry = (_TRAP, f"program counter {pc} ran off code end", pc, 0)
        else:
            spec, operand, defect = decode_at(code, pc)
            if spec is None:
                message = f"illegal opcode {code[pc]:#04x} at {pc}"
                entry = (_TRAP, message, pc, 0)
            elif defect is not None:
                message = (
                    f"truncated {spec.mnemonic} at {pc}: operand runs "
                    f"off code end"
                )
                entry = (_TRAP, message, pc, spec.fuel)
            else:
                entry = (spec.opcode, operand, pc + spec.size, spec.fuel)
        self._decoded[pc] = entry
        return entry

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
        does not.  More than :attr:`MAX_STACK` ``args`` overflow the
        operand stack before the first instruction runs.
        """
        pc = self.binary.entry_offset(entry)
        # Every value on the stack is an int32: args and bridge results
        # are wrapped on the way in, and so is every result that can
        # leave the int32 range.
        stack = [wrap32(a) for a in args]
        budget = self.fuel_per_activation if fuel is None else fuel
        self.activations += 1
        if len(stack) > self.MAX_STACK:
            raise self._trap("operand stack overflow")
        push = stack.append
        pop = stack.pop
        max_stack = self.MAX_STACK
        calls: list[int] = []
        memory = self.memory
        cells = len(memory)
        table = self._decoded
        used = 0

        while True:
            try:
                op, operand, next_pc, cost = table[pc]
            except KeyError:
                op, operand, next_pc, cost = self._decode(pc)
            used += cost
            if used > budget:
                if op == _TRAP and not cost:
                    # Off the code end or an illegal opcode: both trap
                    # before any fuel is charged.
                    raise self._trap(operand)
                self.total_fuel_used += used
                self.traps += 1
                raise FuelExhaustedError(
                    f"fuel budget of {budget} exhausted at pc={pc}"
                )

            # Dispatch on the ISA's opcode classes (the high nibble):
            # stack, memory, arithmetic and comparison come before
            # control flow and port I/O; HALT and NOP close the first
            # class, and trap entries come last.
            if op < 0x20:  # 0x0_ stack, 0x1_ memory
                if op == PUSH:
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(operand)
                elif op == POP:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    pop()
                elif op == DUP:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(stack[-1])
                elif op == SWAP:
                    if len(stack) < 2:
                        raise self._trap("operand stack underflow")
                    stack[-1], stack[-2] = stack[-2], stack[-1]
                elif op == OVER:
                    if len(stack) < 2:
                        raise self._trap("operand stack underflow")
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(stack[-2])
                elif op == LOAD:
                    if operand >= cells:  # a u16 operand is never negative
                        raise self._memory_error(operand, cells)
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(memory[operand])
                elif op == STORE:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    value = pop()
                    if operand >= cells:
                        raise self._memory_error(operand, cells)
                    memory[operand] = value
                elif op == LOADI:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    address = stack[-1]
                    if not 0 <= address < cells:
                        raise self._memory_error(address, cells)
                    stack[-1] = memory[address]
                elif op == STOREI:
                    if len(stack) < 2:
                        raise self._trap("operand stack underflow")
                    address = pop()
                    value = pop()
                    if not 0 <= address < cells:
                        raise self._memory_error(address, cells)
                    memory[address] = value
                elif op == HALT:
                    self.total_fuel_used += used
                    return ActivationResult(used, halted=True)
                elif op == NOP:
                    pass
            elif op < 0x40:  # 0x2_ arithmetic, 0x3_ comparison
                if op in _BINARY:
                    if len(stack) < 2:
                        raise self._trap("operand stack underflow")
                    b = pop()
                    a = stack[-1]
                    if op == ADD:
                        a += b
                    elif op == SUB:
                        a -= b
                    elif op == MUL:
                        a *= b
                    elif op == AND:
                        a &= b
                    elif op == OR:
                        a |= b
                    elif op == XOR:
                        a ^= b
                    elif op == SHL:
                        a <<= b & 31
                    elif op == SHR:
                        a >>= b & 31
                    elif op == EQ:
                        a = 1 if a == b else 0
                    elif op == NE:
                        a = 1 if a != b else 0
                    elif op == LT:
                        a = 1 if a < b else 0
                    elif op == LE:
                        a = 1 if a <= b else 0
                    elif op == GT:
                        a = 1 if a > b else 0
                    else:  # GE
                        a = 1 if a >= b else 0
                    # Only ADD, SUB, MUL and SHL can leave int32, and a
                    # range test is cheaper than a call to wrap32.
                    if INT32_MIN <= a <= INT32_MAX:
                        stack[-1] = a
                    else:
                        stack[-1] = wrap32(a)
                elif op == DIV or op == MOD:
                    # A zero divisor traps before a missing dividend does.
                    if not stack:
                        raise self._trap("operand stack underflow")
                    b = pop()
                    if b == 0:
                        raise self._trap(
                            "division by zero" if op == DIV
                            else "modulo by zero"
                        )
                    if not stack:
                        raise self._trap("operand stack underflow")
                    a = stack[-1]
                    quotient = int(a / b)  # C-style truncation
                    stack[-1] = wrap32(
                        quotient if op == DIV else a - quotient * b
                    )
                elif op == NEG:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    stack[-1] = wrap32(-stack[-1])
                else:  # NOT
                    if not stack:
                        raise self._trap("operand stack underflow")
                    stack[-1] = ~stack[-1]
            elif op < 0x60:  # 0x4_ control flow, 0x5_ port I/O
                if op == JMP:
                    next_pc = operand
                elif op == JZ:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    if pop() == 0:
                        next_pc = operand
                elif op == JNZ:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    if pop() != 0:
                        next_pc = operand
                elif op == CALL:
                    if len(calls) >= self.MAX_CALL_DEPTH:
                        raise self._trap("call stack overflow")
                    calls.append(next_pc)
                    next_pc = operand
                elif op == RET:
                    if not calls:
                        # RET at depth zero ends the activation cleanly.
                        self.total_fuel_used += used
                        return ActivationResult(used, halted=False)
                    next_pc = calls.pop()
                elif op == RDPORT:
                    value = bridge.read_port(operand)
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(wrap32(value))
                elif op == WRPORT:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    bridge.write_port(operand, pop())
                elif op == AVAIL:
                    value = bridge.pending(operand)
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(wrap32(value))
                elif op == RECV:
                    value = bridge.receive(operand)
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(wrap32(value))
                elif op == EMIT:
                    if not stack:
                        raise self._trap("operand stack underflow")
                    self.emitted.append(pop())
                elif op == TIME:
                    value = self._time_source()
                    if len(stack) >= max_stack:
                        raise self._trap("operand stack overflow")
                    push(wrap32(value))
            else:
                # A _TRAP entry: off the code end, an illegal opcode, or
                # (after its fuel) a truncated operand.
                raise self._trap(operand)
            pc = next_pc


__all__ = ["Vm", "PortBridge", "NullBridge", "ActivationResult"]
