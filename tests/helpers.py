"""Shared test fixtures and builders for dynamic-component tests."""

from __future__ import annotations

from repro.core import (
    EMPTY_ECC,
    Ecc,
    InstallMessage,
    LinkKind,
    Pic,
    Plc,
    PlcLink,
    PortInit,
)
from repro.core import messages as msg
from repro.fes import build_fleet, make_remote_control_app
from repro.fes.example_platform import PHONE_ADDRESS
from repro.server.models import InstallStatus
from repro.server.pusher import PushVerdict
from repro.sim import SECOND
from repro.vm.loader import compile_plugin

#: A plug-in that echoes every received message to its next port:
#: on_message(port, value) -> write value+1 on port local index 1.
ECHO_SOURCE = """
.entry on_init
    PUSH 0
    STORE 0
    HALT
.entry on_message
    ; stack on entry: [port, value]
    PUSH 1
    ADD
    WRPORT 1
    HALT
"""

#: A plug-in that forwards its input verbatim: port 0 in -> port 1 out.
FORWARD_SOURCE = """
.entry on_message
    WRPORT 1
    HALT
"""

#: A plug-in that counts timer ticks into memory cell 0 and emits them
#: on port 0 every tick.
TICKER_SOURCE = """
.entry on_timer
    LOAD 0
    PUSH 1
    ADD
    DUP
    STORE 0
    WRPORT 0
    HALT
"""

#: A plug-in whose message handler loops forever (fuel-bomb).
RUNAWAY_SOURCE = """
.entry on_message
loop:
    JMP loop
"""


def make_binary(source: str = FORWARD_SOURCE, mem_hint: int = 16) -> bytes:
    """Compile plug-in source into container bytes."""
    return compile_plugin(source, mem_hint=mem_hint).raw


def make_fat_binary(min_code_bytes: int = 40_000) -> bytes:
    """A *valid* container whose code section exceeds ``min_code_bytes``.

    For memory-budget tests: the upload gate statically verifies every
    binary, so "big" can no longer be faked by padding a container with
    garbage (the CRC check and the verifier both reject it).  This one
    is NOP-padded real code — structurally sound, just obese.
    """
    source = (
        ".entry on_message\n    POP\n    POP\n"
        + "    NOP\n" * min_code_bytes
        + "    HALT\n"
    )
    return compile_plugin(source, mem_hint=16).raw


def link_unconnected(port_id: int) -> PlcLink:
    return PlcLink(port_id, LinkKind.UNCONNECTED)


def link_plugin(port_id: int, target_port_id: int) -> PlcLink:
    return PlcLink(port_id, LinkKind.PLUGIN_PORT, target_port_id=target_port_id)


def link_virtual(port_id: int, virtual: str) -> PlcLink:
    return PlcLink(port_id, LinkKind.VIRTUAL, target_virtual=virtual)


def link_remote(port_id: int, virtual: str, remote_port_id: int) -> PlcLink:
    return PlcLink(
        port_id,
        LinkKind.VIRTUAL_REMOTE,
        target_virtual=virtual,
        target_port_id=remote_port_id,
    )


def make_install(
    plugin_name: str,
    target_ecu: str,
    target_swc: str,
    ports: list[tuple[str, int]],
    links: list[PlcLink],
    source: str = FORWARD_SOURCE,
    ecc: Ecc = EMPTY_ECC,
    version: str = "1.0",
    mem_hint: int = 16,
) -> InstallMessage:
    """Build a full installation package for tests."""
    return InstallMessage(
        plugin_name=plugin_name,
        version=version,
        target_ecu=target_ecu,
        target_swc=target_swc,
        pic=Pic(tuple(PortInit(name, pid) for name, pid in ports)),
        plc=Plc(tuple(links)),
        ecc=ecc,
        binary=make_binary(source, mem_hint=mem_hint),
    )


def server_packages(
    version: str, phone: str = PHONE_ADDRESS
) -> dict[str, InstallMessage]:
    """``{plug-in: InstallMessage}`` the server pushes to an example car
    for the remote-control APP at ``version`` whose phone is ``phone``."""
    fleet = build_fleet(1, seed=1)
    fleet.api.store.upload(
        make_remote_control_app(phone, version=version)
    ).unwrap()
    captured = {}

    def keep(vin, raw):
        message = msg.decode(raw)
        captured[message.plugin_name] = message
        return PushVerdict.drop()

    fleet.server.pusher.set_push_filter(keep)
    fleet.run(1 * SECOND)
    assert fleet.deploy("remote-control").ok
    return captured


def assert_vehicles_run_active_records(fleet) -> None:
    """Quiescence, at either fidelity: each vehicle's plug-ins per SW-C,
    read from its diagnostic reports, are exactly the ones the server's
    ACTIVE records name."""
    for vin in fleet.vins:
        recorded: dict[str, set[str]] = {}
        for installed in fleet.server.db.installed_apps(vin):
            if installed.status is InstallStatus.ACTIVE:
                for entry in installed.plugins:
                    recorded.setdefault(entry.swc_name, set()).add(
                        entry.plugin_name
                    )
        running = {
            report.source_swc: {h.plugin_name for h in report.plugins}
            for report in fleet.vehicle(vin).diagnostic_reports()
            if report.plugins
        }
        assert running == recorded, vin
