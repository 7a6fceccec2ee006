"""VERIFY — static-verifier throughput on synthetic and real binaries.

Producer of ``BENCH_verify.json`` (written at the repo root, untracked,
and uploaded as a CI artifact): quantifies the cost the upload gate adds
to every APP upload and campaign pre-flight.

* ``verify_size_sweep`` — wall-clock (min of 3) for verifying
  synthetic binaries from ~32 to ~4096 instructions, with basic-block
  structure (call/branch/join every few instructions) so the stack
  and fuel analyses do real work, not a single straight-line pass.
* ``example_plugins`` — the reference plug-ins the repo ships, each
  verified with the limits the upload gate derives for it; pins that
  they stay clean and records per-binary latency.
"""

import time
from pathlib import Path

from benchmarks.conftest import ROOT, record_section  # noqa: F401
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.vm.loader import compile_plugin, unpack
from repro.vm.verify import VerifyLimits, verify_binary

OUTPUT = Path(ROOT) / "BENCH_verify.json"

REPEATS = 3


def _record(section, payload):
    record_section(OUTPUT, section, payload)


def _synthetic_source(blocks):
    """~8 instructions per block: compute, a CALL, a diamond join."""
    lines = [".entry on_message"]
    for i in range(blocks):
        lines += [
            f"b{i}:",
            "    PUSH 7",
            "    ADD",
            f"    CALL helper",
            f"    JZ skip{i}",
            "    PUSH 1",
            f"    JMP join{i}",
            f"skip{i}:",
            "    PUSH 2",
            f"join{i}:",
        ]
    lines += ["    POP", "    HALT", "helper:", "    PUSH 3", "    ADD", "    RET"]
    return "\n".join(lines) + "\n"


def _timed_verify(binary, limits):
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = verify_binary(binary, limits)
        best = min(best, time.perf_counter() - start)
    return best, report


def test_verify_size_sweep():
    rows = []
    for blocks in (4, 32, 128, 512):
        binary = compile_plugin(_synthetic_source(blocks), mem_hint=16)
        report = verify_binary(binary, VerifyLimits(num_ports=4))
        wall, report = _timed_verify(binary, VerifyLimits(num_ports=4))
        rows.append(
            {
                "blocks": blocks,
                "instructions": report.instruction_count,
                "code_bytes": report.code_size,
                "wall_s": round(wall, 6),
                "findings": len(report.findings),
                "verdict": report.verdict,
            }
        )
        assert report.ok, report.summary()
    # Cost grows roughly linearly with code size: the largest binary
    # must not be pathologically slower per instruction than the
    # smallest (guards against an accidental quadratic fixpoint).
    per_ins = [r["wall_s"] / r["instructions"] for r in rows]
    assert per_ins[-1] < per_ins[0] * 50 + 1e-4
    _record("verify_size_sweep", rows)


def test_example_plugins():
    app = make_remote_control_app(PHONE_ADDRESS)
    rows = []
    for name in sorted(app.plugins):
        descriptor = app.plugins[name]
        binary = unpack(descriptor.binary)
        limits = VerifyLimits(num_ports=len(descriptor.port_names))
        wall, report = _timed_verify(binary, limits)
        rows.append(
            {
                "plugin": name,
                "instructions": report.instruction_count,
                "wall_s": round(wall, 6),
                "verdict": report.verdict,
                "entry_fuel": {
                    entry: bound
                    for entry, bound in sorted(report.entry_fuel.items())
                },
            }
        )
        assert report.clean, f"{name}: {report.summary()}"
    _record("example_plugins", rows)
