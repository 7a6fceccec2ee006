#!/usr/bin/env python3
"""Third-party plug-in development workflow, end to end.

The paper's third motivation is "open innovation where an ecosystem of
third party developers can develop new services".  This example walks
the developer loop: write a plug-in in the bundled assembly language,
unit-test it on the :class:`PluginTestBench` (no vehicle needed),
inspect the binary with the disassembler, upload it as an APP, and
deploy it to a vehicle — where it behaves exactly as on the bench.

The plug-in is a *cruise filter*: it receives raw speed commands and
rate-limits them (max +/-5 per message) before forwarding to the
drivetrain, keeping state in VM memory across activations.

Run:  python examples/plugin_development.py
"""

from repro import build_example_platform
from repro.api import AppBuilder, App
from repro.core.testbench import PluginTestBench
from repro.sim import SECOND
from repro.vm.disasm import disassemble
from repro.vm.loader import compile_plugin
from repro.vm.verify import VerifyLimits, verify_binary

CRUISE_FILTER_SOURCE = """
; cruise filter: rate-limit speed commands to +/-5 per step.
; memory: cell 0 = current output value
.entry on_init
    PUSH 0
    STORE 0
    HALT
.entry on_message
    ; stack: [port, value] -- value on top
    STORE 1          ; requested speed
    POP              ; discard port (single input)
    LOAD 1
    LOAD 0
    SUB              ; delta = requested - current
    DUP
    PUSH 5
    GT
    JNZ clamp_up     ; delta > 5
    DUP
    PUSH -5
    LT
    JNZ clamp_down   ; delta < -5
    ; small delta: accept it
    LOAD 0
    ADD
    STORE 0
    JMP emit
clamp_up:
    POP
    LOAD 0
    PUSH 5
    ADD
    STORE 0
    JMP emit
clamp_down:
    POP
    LOAD 0
    PUSH 5
    SUB
    STORE 0
emit:
    LOAD 0
    WRPORT 1
    HALT
"""


def bench_phase() -> bytes:
    print("== 1. unit-test the plug-in on the bench (no vehicle) ==")
    bench = PluginTestBench.from_source(CRUISE_FILTER_SOURCE, mem_hint=8)
    bench.init()
    for requested in (3, 20, 20, 20, -10):
        bench.message(port=0, value=requested)
    outputs = bench.report.writes_on(1)
    print(f"   requested: [3, 20, 20, 20, -10]")
    print(f"   filtered:  {outputs}")
    assert outputs == [3, 8, 13, 18, 13], outputs
    print(f"   activations: {bench.report.activations}, "
          f"traps: {bench.report.traps}, fuel: {bench.report.fuel_used}")

    print("== 2. inspect the shipped binary ==")
    binary = compile_plugin(CRUISE_FILTER_SOURCE, mem_hint=8)
    listing = disassemble(binary)
    head = "\n".join(listing.splitlines()[:8])
    print(f"   container: {binary.size} bytes, "
          f"entries: {sorted(binary.entries)}")
    print("   " + head.replace("\n", "\n   "))
    print("   ...")

    print("== 2b. static verification (what the upload gate runs) ==")
    report = verify_binary(binary, VerifyLimits(num_ports=2))
    print(f"   {report.summary()}")
    for entry, bound in sorted(report.entry_fuel.items()):
        print(f"   worst-case fuel {entry}: {bound}")
    assert report.clean, report.render(binary)
    return binary.raw


def make_cruise_app(binary_raw: bytes) -> App:
    app = AppBuilder("cruise-filter", "model-car-rpi")
    app.plugin("CRUISE", binary=binary_raw, on="swc2",
               ports=("speed_in", "speed_out"))
    app.unconnected("CRUISE", "speed_in")
    app.virtual("CRUISE", "speed_out", "V5")
    app.external("111.22.33.44:56789", "CruiseSpeed", "CRUISE", "speed_in")
    return app.to_app()


def deploy_phase(binary_raw: bytes) -> None:
    print("== 3. upload the APP and deploy it to a real vehicle ==")
    platform = build_example_platform(seed=5)
    platform.server.api.store.upload(make_cruise_app(binary_raw)).unwrap()
    platform.boot()
    platform.run(1 * SECOND)
    deployment = platform.deploy("cruise-filter")
    assert deployment.ok, deployment.reasons(platform.vehicle().vin)
    deployment.wait(10 * SECOND)
    print("   installed:",
          "CRUISE" in platform.vehicle().pirte_of("swc2").plugins)

    print("== 4. same behaviour in the vehicle as on the bench ==")
    for requested in (3, 20, 20, 20, -10):
        platform.phone().send("CruiseSpeed", requested)
        platform.run(int(0.3 * SECOND))
    platform.run(1 * SECOND)
    actuated = platform.actuator_state().get("speed")
    print(f"   drivetrain received: {actuated}")
    assert actuated == [3, 8, 13, 18, 13], actuated
    print("   bench == vehicle: reproducible plug-in behaviour")
    print("done.")


def main() -> None:
    raw = bench_phase()
    deploy_phase(raw)


if __name__ == "__main__":
    main()
