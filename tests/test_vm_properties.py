"""Property-based tests for the VM, assembler, and disassembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import NullBridge, Vm, assemble, compile_plugin, unpack
from repro.vm.disasm import decode_all, disassemble
from repro.vm.isa import INT32_MAX, INT32_MIN, wrap32

i32 = st.integers(INT32_MIN, INT32_MAX)


def run_binop(mnemonic, a, b, fuel=1000):
    src = f"""
    .entry main
        PUSH {a}
        PUSH {b}
        {mnemonic}
        EMIT
        HALT
    """
    vm = Vm(compile_plugin(src), fuel_per_activation=fuel)
    vm.activate("main", NullBridge())
    return vm.emitted[0]


class TestArithmeticProperties:
    @given(i32, i32)
    @settings(max_examples=60)
    def test_add_wraps_like_int32(self, a, b):
        assert run_binop("ADD", a, b) == wrap32(a + b)

    @given(i32, i32)
    @settings(max_examples=60)
    def test_sub_wraps_like_int32(self, a, b):
        assert run_binop("SUB", a, b) == wrap32(a - b)

    @given(i32, i32)
    @settings(max_examples=40)
    def test_mul_wraps_like_int32(self, a, b):
        assert run_binop("MUL", a, b) == wrap32(a * b)

    @given(i32, i32.filter(lambda v: v != 0))
    @settings(max_examples=40)
    def test_div_truncates_toward_zero(self, a, b):
        assert run_binop("DIV", a, b) == wrap32(int(a / b))

    @given(i32, i32.filter(lambda v: v != 0))
    @settings(max_examples=40)
    def test_div_mod_identity(self, a, b):
        q = run_binop("DIV", a, b)
        r = run_binop("MOD", a, b)
        assert wrap32(q * b + r) == wrap32(a)

    @given(i32, i32)
    @settings(max_examples=40)
    def test_comparisons_boolean(self, a, b):
        assert run_binop("LT", a, b) == (1 if a < b else 0)
        assert run_binop("GE", a, b) == (1 if a >= b else 0)

    @given(i32)
    @settings(max_examples=40)
    def test_neg_involution(self, a):
        src = f"""
        .entry main
            PUSH {a}
            NEG
            NEG
            EMIT
            HALT
        """
        vm = Vm(compile_plugin(src))
        vm.activate("main", NullBridge())
        assert vm.emitted == [wrap32(a)]

    @given(i32, st.integers(0, 31))
    @settings(max_examples=40)
    def test_shifts_mask_to_31(self, a, s):
        assert run_binop("SHL", a, s) == wrap32(a << s)
        assert run_binop("SHR", a, s) == wrap32(a >> s)


class TestWrap32:
    @given(st.integers(-(2**40), 2**40))
    def test_wrap32_in_range(self, value):
        wrapped = wrap32(value)
        assert INT32_MIN <= wrapped <= INT32_MAX

    @given(i32)
    def test_wrap32_identity_in_range(self, value):
        assert wrap32(value) == value

    @given(st.integers(-(2**40), 2**40))
    def test_wrap32_congruent_mod_2_32(self, value):
        assert (wrap32(value) - value) % (1 << 32) == 0


SIMPLE_OPS = ["NOP", "POP", "DUP", "ADD", "SUB", "EMIT"]


@st.composite
def random_programs(draw):
    """Random (often faulting) straight-line programs."""
    lines = [".entry main"]
    for __ in range(draw(st.integers(1, 25))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            lines.append(f"    PUSH {draw(i32)}")
        elif choice == 1:
            lines.append(f"    {draw(st.sampled_from(SIMPLE_OPS))}")
        else:
            lines.append(f"    LOAD {draw(st.integers(0, 40))}")
    lines.append("    HALT")
    return "\n".join(lines)


class TestRobustness:
    @given(random_programs())
    @settings(max_examples=80)
    def test_random_programs_never_escape(self, source):
        """Any program either completes or raises a VmError; the
        interpreter never corrupts itself or loops forever."""
        from repro.errors import VmError

        vm = Vm(compile_plugin(source, mem_hint=16), fuel_per_activation=500)
        try:
            vm.activate("main", NullBridge())
        except VmError:
            pass
        # The VM stays usable after a trap.
        ok = Vm(compile_plugin(".entry main\nHALT\n"))
        ok.activate("main", NullBridge())

    @given(st.binary(min_size=0, max_size=120))
    @settings(max_examples=80)
    def test_unpack_rejects_garbage(self, raw):
        from repro.errors import BinaryFormatError

        try:
            unpack(raw)
        except BinaryFormatError:
            pass  # the only acceptable failure


class TestDisassembler:
    def test_decode_roundtrip(self):
        src = """
        .entry main
            PUSH 5
            STORE 0
        loop:
            LOAD 0
            JZ done
            LOAD 0
            PUSH 1
            SUB
            STORE 0
            JMP loop
        done:
            HALT
        """
        binary = compile_plugin(src)
        listing = disassemble(binary)
        assert ".entry main" in listing
        assert "JZ" in listing

    def test_disassembled_source_reassembles_identically(self):
        src = """
        .entry on_init
            PUSH 1
            EMIT
            HALT
        .entry on_message
            WRPORT 1
            HALT
        """
        original = compile_plugin(src)
        listing = disassemble(original)
        # Strip the header comment, reassemble, compare code bytes.
        body = "\n".join(
            line for line in listing.splitlines()
            if not line.startswith(";")
        )
        reassembled = assemble(body)
        assert reassembled.code == original.code
        assert reassembled.entries == original.entries

    def test_decode_all_instruction_count(self):
        binary = compile_plugin(".entry m\nPUSH 1\nPOP\nHALT\n")
        assert len(decode_all(binary.code)) == 3

    def test_illegal_opcode_rejected(self):
        from repro.errors import BinaryFormatError

        with pytest.raises(BinaryFormatError):
            decode_all(b"\xff")

    def test_truncated_operand_rejected(self):
        from repro.errors import BinaryFormatError

        with pytest.raises(BinaryFormatError):
            decode_all(bytes([0x02, 0x01]))  # PUSH with 1 of 4 bytes
