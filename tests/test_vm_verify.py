"""Static bytecode verifier: corpus, differential properties, the gate.

Five layers of coverage:

* known-bad corpus — one hand-crafted binary per finding kind, pinning
  that each analysis actually fires (and at the right severity tier);
* differential properties (hypothesis) — the soundness contract: any
  binary the verifier calls *clean* never traps when executed against a
  :class:`NullBridge`, and its measured fuel never exceeds the static
  worst-case bound (exactly equal on straight-line code);
* cost — verification time grows linearly with code size, and a
  ~3.6k-instruction plug-in verifies inside a wall-clock ceiling;
* the OTA gate — uploads carrying error-tier binaries are rejected
  in-process with ``VERIFICATION_FAILED`` and the report stays
  queryable, while every reference plug-in verifies clean and deploys
  unchanged; campaigns pre-flight the app before wave 1;
* the interpreter fix the verifier mirrors — a truncated operand traps
  cleanly instead of escaping as a raw ``struct.error``.
"""

import json
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_fleet
from repro.errors import FuelExhaustedError, VmTrap
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.server.database import Database
from repro.server.models import (
    App,
    ConnectionKind,
    ConnectionSpec,
    PluginDescriptor,
    SwConf,
)
from repro.server.services.appstore import AppStore, AppVerification
from repro.server.services.envelope import ErrorCode
from repro.vm import NullBridge, Vm, isa
from repro.vm.assembler import Assembled
from repro.vm.loader import compile_plugin, pack, unpack
from repro.vm.verify import (
    DEFAULT_ENTRY_ARGS,
    VerificationReport,
    VerifyLimits,
    verify_binary,
    verify_container,
)
from repro.vm.verify import report as rep
from tests.helpers import make_binary


def compiled(source, mem_hint=16):
    return compile_plugin(source, mem_hint=mem_hint)


def crafted(code, entries=None, mem_hint=16):
    """Binary from raw code bytes — for shapes the assembler refuses."""
    assembled = Assembled(
        code=bytes(code), entries=dict(entries or {"on_init": 0}),
        instruction_count=0,
    )
    return unpack(pack(assembled, mem_hint=mem_hint))


def kinds(report):
    return {f.kind for f in report.findings}


def kinds_at(report, severity):
    return {f.kind for f in report.findings if f.severity is severity}


# -- known-bad corpus ----------------------------------------------------------


class TestCorpus:
    """One crafted binary per finding kind."""

    def test_container_format(self):
        report = verify_container(b"not a PIB1 container at all")
        assert rep.KIND_CONTAINER in kinds_at(report, rep.Severity.ERROR)
        assert not report.ok

    def test_illegal_opcode(self):
        report = verify_binary(crafted([0xFF]))
        assert rep.KIND_ILLEGAL_OPCODE in kinds_at(report, rep.Severity.ERROR)

    def test_truncated_instruction(self):
        # PUSH with its i32 operand chopped off.
        report = verify_binary(crafted([isa.PUSH]))
        assert rep.KIND_TRUNCATED in kinds_at(report, rep.Severity.ERROR)

    def test_jump_target_mid_instruction(self):
        # JMP 2 lands inside PUSH's operand bytes.
        code = bytes([isa.PUSH, 0, 0, 0, 0, isa.JMP]) + struct.pack("<H", 2)
        report = verify_binary(crafted(code))
        assert rep.KIND_JUMP_TARGET in kinds_at(report, rep.Severity.ERROR)

    def test_entry_target_mid_instruction(self):
        code = bytes([isa.PUSH, 0, 0, 0, 0, isa.HALT])
        report = verify_binary(crafted(code, entries={"on_init": 2}))
        assert rep.KIND_ENTRY_TARGET in kinds_at(report, rep.Severity.ERROR)

    def test_fall_off_end(self):
        report = verify_binary(compiled(".entry on_init\n    NOP\n"))
        assert rep.KIND_FALL_OFF_END in kinds_at(report, rep.Severity.ERROR)

    def test_stack_underflow_guaranteed(self):
        report = verify_binary(compiled(".entry on_init\n    POP\n    HALT\n"))
        assert rep.KIND_STACK_UNDERFLOW in kinds_at(report, rep.Severity.ERROR)

    def test_stack_maybe_underflow_is_warn_only(self):
        # One branch pushes before the join, the other does not: the
        # POP may or may not underflow, so the verdict must be the
        # warn-tier finding and NOT the guaranteed error.
        source = """
        .entry on_init
            PUSH 0
            JZ skip
            PUSH 1
        skip:
            POP
            HALT
        """
        report = verify_binary(compiled(source))
        assert rep.KIND_MAYBE_UNDERFLOW in kinds_at(report, rep.Severity.WARN)
        assert rep.KIND_STACK_UNDERFLOW not in kinds(report)
        assert report.ok and not report.clean

    def test_stack_overflow_guaranteed(self):
        source = ".entry on_init\n" + "    PUSH 1\n" * 257 + "    HALT\n"
        report = verify_binary(compiled(source))
        assert rep.KIND_STACK_OVERFLOW in kinds_at(report, rep.Severity.ERROR)

    def test_stack_maybe_overflow_in_push_loop(self):
        source = ".entry on_init\nloop:\n    PUSH 1\n    JMP loop\n"
        report = verify_binary(compiled(source))
        assert rep.KIND_MAYBE_OVERFLOW in kinds_at(report, rep.Severity.WARN)
        assert rep.KIND_STACK_OVERFLOW not in kinds(report)

    def test_recursion_blows_call_depth(self):
        source = ".entry on_init\nf:\n    CALL f\n    RET\n"
        report = verify_binary(compiled(source))
        assert rep.KIND_CALL_DEPTH in kinds_at(report, rep.Severity.ERROR)
        assert rep.KIND_RECURSION in kinds_at(report, rep.Severity.WARN)

    def test_analysis_budget_is_warn(self):
        source = ".entry on_init\n" + "    PUSH 1\n    POP\n" * 8 + "    HALT\n"
        limits = VerifyLimits(state_budget=3)
        report = verify_binary(compiled(source), limits)
        assert rep.KIND_ANALYSIS_BUDGET in kinds_at(report, rep.Severity.WARN)

    def test_memory_bounds_against_mem_hint(self):
        source = ".entry on_init\n    LOAD 99\n    POP\n    HALT\n"
        report = verify_binary(compiled(source, mem_hint=8))
        assert rep.KIND_MEMORY_BOUNDS in kinds_at(report, rep.Severity.ERROR)
        # The same binary against a big enough pool is fine.
        ok = verify_binary(compiled(source, mem_hint=8),
                           VerifyLimits(memory_cells=128))
        assert rep.KIND_MEMORY_BOUNDS not in kinds(ok)

    def test_indirect_memory_is_warn(self):
        source = ".entry on_init\n    PUSH 0\n    LOADI\n    POP\n    HALT\n"
        report = verify_binary(compiled(source, mem_hint=8))
        assert rep.KIND_INDIRECT_MEMORY in kinds_at(report, rep.Severity.WARN)
        assert report.ok and not report.clean

    def test_port_bounds_against_declared_ports(self):
        source = ".entry on_init\n    PUSH 1\n    WRPORT 9\n    HALT\n"
        report = verify_binary(compiled(source), VerifyLimits(num_ports=4))
        assert rep.KIND_PORT_BOUNDS in kinds_at(report, rep.Severity.ERROR)
        # Without a declared port count the check is skipped.
        report = verify_binary(compiled(source))
        assert rep.KIND_PORT_BOUNDS not in kinds(report)

    def test_fuel_budget_warn_and_exact_bound(self):
        source = ".entry on_init\n    PUSH 1\n    POP\n    HALT\n"
        binary = compiled(source)
        report = verify_binary(binary)
        # PUSH(1) + POP(1) + HALT(1): the acyclic bound is exact.
        assert report.entry_fuel["on_init"] == 3
        tight = verify_binary(binary, VerifyLimits(fuel_per_activation=2))
        assert rep.KIND_FUEL_BUDGET in kinds_at(tight, rep.Severity.WARN)

    def test_fuel_loop_is_info_and_bound_unknown(self):
        report = verify_binary(compiled(".entry on_init\nloop:\n    JMP loop\n"))
        assert rep.KIND_FUEL_LOOP in kinds_at(report, rep.Severity.INFO)
        assert report.entry_fuel["on_init"] is None
        # Loops are tolerated by the best-effort contract: info only.
        assert report.ok

    def test_div_by_zero_is_info(self):
        source = ".entry on_init\n    PUSH 6\n    PUSH 2\n    DIV\n    POP\n    HALT\n"
        report = verify_binary(compiled(source))
        assert rep.KIND_DIV_BY_ZERO in kinds_at(report, rep.Severity.INFO)
        assert report.clean


# -- report plumbing -----------------------------------------------------------


class TestReport:
    def test_wire_round_trip(self):
        report = verify_binary(
            compiled(".entry on_init\n    POP\n    LOADI\n    POP\n    HALT\n"),
            VerifyLimits(num_ports=2),
        )
        assert report.errors and report.warnings
        wire = json.loads(json.dumps(report.to_dict()))
        back = VerificationReport.from_dict(wire)
        assert back.to_dict() == report.to_dict()
        assert back.verdict == report.verdict == "rejected"

    def test_render_annotates_the_faulting_instruction(self):
        binary = compiled(".entry on_init\n    POP\n    HALT\n")
        listing = verify_binary(binary).render(binary)
        assert ".entry on_init" in listing
        assert "POP" in listing and "stack_underflow" in listing

    def test_findings_sorted_errors_first(self):
        report = verify_binary(
            compiled(".entry on_init\n    PUSH 0\n    LOADI\n    WRPORT 9\n    HALT\n"),
            VerifyLimits(num_ports=2),
        )
        order = {rep.Severity.ERROR: 0, rep.Severity.WARN: 1,
                 rep.Severity.INFO: 2}
        tiers = [order[f.severity] for f in report.findings]
        assert tiers == sorted(tiers)


# -- cost ----------------------------------------------------------------------


def blocky_source(blocks):
    """7 instructions per block: compute, a CALL, a diamond join."""
    lines = [".entry on_message"]
    for i in range(blocks):
        lines += [
            f"b{i}:",
            "    PUSH 7",
            "    ADD",
            "    CALL helper",
            f"    JZ skip{i}",
            "    PUSH 1",
            f"    JMP join{i}",
            f"skip{i}:",
            "    PUSH 2",
            f"join{i}:",
        ]
    lines += ["    POP", "    HALT", "helper:", "    PUSH 3", "    ADD", "    RET"]
    return "\n".join(lines) + "\n"


class TestVerifierCost:
    def test_cost_grows_linearly_with_code_size(self):
        per_instruction = []
        for blocks in (4, 32, 128, 512):
            binary = compiled(blocky_source(blocks))
            walls = []
            for __ in range(3):
                start = time.perf_counter()
                report = verify_binary(binary, VerifyLimits(num_ports=4))
                walls.append(time.perf_counter() - start)
            assert report.ok, report.summary()
            per_instruction.append(min(walls) / report.instruction_count)
        # Catches a quadratic fixpoint sneaking into the verifier.
        assert min(walls) <= 0.5, walls
        assert per_instruction[-1] < per_instruction[0] * 50 + 1e-4


# -- the interpreter fix the verifier mirrors ----------------------------------


class TestTruncatedOperandTrap:
    def test_machine_traps_cleanly_not_struct_error(self):
        binary = crafted([isa.PUSH])  # operand runs off the code end
        vm = Vm(binary)
        with pytest.raises(VmTrap, match="truncated"):
            vm.activate("on_init", NullBridge())
        assert vm.traps == 1

    def test_verifier_flags_the_same_binary_statically(self):
        report = verify_binary(crafted([isa.PUSH]))
        assert rep.KIND_TRUNCATED in kinds(report)
        assert not report.ok


# -- differential properties ---------------------------------------------------

#: Straight-line instruction pool with (pops, pushes) — no control flow,
#: no DIV/MOD, so a generated program must be verifier-clean and must
#: execute without any trap whatsoever.
LINEAR_POOL = [
    ("PUSH {i32}", 0, 1),
    ("POP", 1, 0),
    ("DUP", 1, 2),
    ("SWAP", 2, 2),
    ("OVER", 2, 3),
    ("ADD", 2, 1),
    ("SUB", 2, 1),
    ("MUL", 2, 1),
    ("NEG", 1, 1),
    ("AND", 2, 1),
    ("OR", 2, 1),
    ("XOR", 2, 1),
    ("NOT", 1, 1),
    ("SHL", 2, 1),
    ("SHR", 2, 1),
    ("EQ", 2, 1),
    ("LT", 2, 1),
    ("GE", 2, 1),
    ("LOAD {mem}", 0, 1),
    ("STORE {mem}", 1, 0),
    ("RDPORT {port}", 0, 1),
    ("WRPORT {port}", 1, 0),
    ("AVAIL {port}", 0, 1),
    ("EMIT", 1, 0),
    ("TIME", 0, 1),
]

MEM_CELLS = 8
NUM_PORTS = 4
LIMITS = VerifyLimits(num_ports=NUM_PORTS)


@st.composite
def linear_programs(draw):
    """Depth-tracked straight-line ``on_message`` bodies ending in HALT."""
    n = draw(st.integers(min_value=0, max_value=30))
    depth = DEFAULT_ENTRY_ARGS["on_message"]
    lines = []
    for _ in range(n):
        options = [op for op in LINEAR_POOL
                   if op[1] <= depth and depth - op[1] + op[2] <= 16]
        template, pops, pushes = draw(st.sampled_from(options))
        line = template.format(
            i32=draw(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)),
            mem=draw(st.integers(min_value=0, max_value=MEM_CELLS - 1)),
            port=draw(st.integers(min_value=0, max_value=NUM_PORTS - 1)),
        )
        lines.append("    " + line)
        depth += pushes - pops
    return ".entry on_message\n" + "\n".join(lines) + "\n    HALT\n"


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(source=linear_programs(), args=st.tuples(st.integers(-9, 9),
                                                    st.integers(-9, 9)))
    def test_clean_linear_program_never_traps_and_fuel_is_exact(
        self, source, args
    ):
        binary = compiled(source, mem_hint=MEM_CELLS)
        report = verify_binary(binary, LIMITS)
        assert report.clean, report.summary()
        bound = report.entry_fuel["on_message"]
        assert bound is not None
        vm = Vm(binary, fuel_per_activation=LIMITS.fuel_per_activation)
        result = vm.activate("on_message", NullBridge(), args=args)
        # Single acyclic path: the static worst case IS the actual cost.
        assert result.fuel_used == bound
        assert vm.traps == 0

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(sorted(isa.BY_OPCODE)),
                      st.integers(min_value=0, max_value=80)),
            max_size=25,
        ),
        args=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_clean_verdict_implies_no_trap_on_instruction_soup(
        self, ops, args
    ):
        code = bytearray()
        for opcode, operand in ops:
            spec = isa.BY_OPCODE[opcode]
            code.append(opcode)
            if spec.operand == "i32":
                code += struct.pack("<i", operand)
            elif spec.operand == "u16":
                code += struct.pack("<H", operand)
            elif spec.operand == "u8":
                code += struct.pack("<B", operand % 256)
        code.append(isa.HALT)
        binary = crafted(code, entries={"on_message": 0}, mem_hint=MEM_CELLS)
        report = verify_binary(binary, LIMITS)  # must never raise
        if not report.clean:
            return
        vm = Vm(binary, fuel_per_activation=LIMITS.fuel_per_activation)
        try:
            result = vm.activate("on_message", NullBridge(), args=args)
        except FuelExhaustedError:
            return  # best-effort contract: fuel exhaustion is tolerated
        except VmTrap as trap:
            # DIV/MOD by zero is the one info-tier runtime fault.
            assert "zero" in str(trap), f"clean binary trapped: {trap}"
            return
        bound = report.entry_fuel["on_message"]
        if bound is not None:
            assert result.fuel_used <= bound

    @settings(max_examples=80, deadline=None)
    @given(raw=st.binary(max_size=120))
    def test_verifier_never_crashes_on_arbitrary_bytes(self, raw):
        report = verify_container(raw)
        assert isinstance(report, VerificationReport)
        report.to_dict()
        report.render()


# -- the OTA gate --------------------------------------------------------------


def app_with_binary(name, binary, ports=("in", "out")):
    plugin = PluginDescriptor(f"{name}_p", binary, tuple(ports))
    conf = SwConf(
        model="model-car-rpi",
        placements=((plugin.name, "swc2"),),
        connections=(
            ConnectionSpec(
                ConnectionKind.VIRTUAL, plugin.name, "out", target_virtual="V4"
            ),
        ),
    )
    return App(name, "1.0", {plugin.name: plugin}, [conf])


BAD_SOURCE = ".entry on_message\n    WRPORT 9\n    HALT\n"


class TestUploadGate:
    def test_error_tier_binary_rejected_at_upload(self):
        store = AppStore(Database())
        result = store.upload(app_with_binary("bad", make_binary(BAD_SOURCE)))
        assert not result.ok
        assert result.code is ErrorCode.VERIFICATION_FAILED
        assert any("port_bounds" in r for r in result.reasons)
        # The rejected APP never reached the database...
        assert "bad" not in store.db.apps
        # ...but its verification record is queryable for diagnosis.
        verification = store.verification("bad").unwrap()
        assert isinstance(verification, AppVerification)
        assert not verification.ok

    def test_clean_binary_uploads_and_records_verification(self):
        store = AppStore(Database())
        app = app_with_binary("good", make_binary())
        assert store.upload(app).ok
        verification = store.verification("good").unwrap()
        assert verification.ok and verification.version == "1.0"

    def test_upload_version_gated_too(self):
        store = AppStore(Database())
        store.upload(app_with_binary("app", make_binary())).unwrap()
        bad_v2 = app_with_binary("app", make_binary(BAD_SOURCE))
        bad_v2 = App(
            "app", "2.0", bad_v2.plugins, list(bad_v2.sw_confs),
        )
        result = store.upload_version(bad_v2)
        assert not result.ok
        assert result.code is ErrorCode.VERIFICATION_FAILED
        # v1 stays the served version.
        assert store.db.apps["app"].version == "1.0"

    def test_preflight_failure_response(self):
        store = AppStore(Database())
        # Sneak a bad APP past the gate, as a pre-verifier database would.
        store.db.add_app(app_with_binary("smuggled", make_binary(BAD_SOURCE)))
        result = store.preflight("smuggled")
        assert not result.ok
        assert result.code is ErrorCode.VERIFICATION_FAILED

    def test_reference_app_verifies_clean(self):
        store = AppStore(Database())
        verification = store.verify_app(make_remote_control_app(PHONE_ADDRESS))
        assert verification.clean, verification.reasons()

    def test_each_reference_plugin_is_clean_against_its_own_ports(self):
        app = make_remote_control_app(PHONE_ADDRESS)
        for name, descriptor in sorted(app.plugins.items()):
            binary = unpack(descriptor.binary)
            limits = VerifyLimits(num_ports=len(descriptor.port_names))
            report = verify_binary(binary, limits)
            assert report.clean, f"{name}: {report.summary()}"
            assert report.entry_fuel, name


class TestCampaignPreflight:
    def test_campaign_halts_before_wave_one_on_bad_app(self):
        fleet = build_fleet(4, seed=11)
        # The bad APP is already in the database (uploaded before the
        # verifier existed): the engine must refuse to push it anyway.
        fleet.server.db.add_app(
            app_with_binary("stale-bad", make_binary(BAD_SOURCE))
        )
        spec = canary_campaign(
            "stale-bad", fractions=(0.5, 1.0), max_failure_rate=0.5
        )
        report = fleet.run_campaign(spec)
        assert report.status == "halted"
        assert any(e.kind == "verification_failed" for e in report.events)
        assert not report.waves
        assert fleet.active_count("stale-bad") == 0

    def test_clean_app_campaign_unaffected(self):
        fleet = build_fleet(4, seed=11)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        spec = canary_campaign(
            "remote-control", fractions=(0.5, 1.0), max_failure_rate=0.5
        )
        report = fleet.run_campaign(spec)
        assert report.status == "succeeded"
        assert not any(
            e.kind == "verification_failed" for e in report.events
        )
