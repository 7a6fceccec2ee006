"""Tests for fault protection on critical signals (paper Sec. 3.1.1)."""

import pytest

from repro.autosar import INT16, SystemDescription, build_system
from repro.core import PluginSwcSpec, PortGuard, ServicePort, get_pirte
from repro.core.plugin_swc import make_plugin_swc_type
from repro.core.virtual_ports import GuardState, VirtualPortKind, VirtualPortSpec
from repro.errors import ConfigurationError, ContextError
from repro.sim import MS
from repro.telemetry import TelemetryBus
from tests.helpers import FORWARD_SOURCE, link_virtual, make_install


class TestPortGuardUnit:
    def test_range_enforced(self):
        state = GuardState(PortGuard(min_value=0, max_value=100))
        assert state.check(50, now=0)
        assert not state.check(-1, now=1)
        assert not state.check(101, now=2)
        assert state.range_violations == 2

    def test_rate_enforced(self):
        state = GuardState(PortGuard(min_interval_us=1000))
        assert state.check(1, now=0)
        assert not state.check(2, now=500)
        assert state.check(3, now=1100)
        assert state.rate_violations == 1

    def test_rejected_write_does_not_reset_rate_window(self):
        state = GuardState(PortGuard(min_interval_us=1000))
        assert state.check(1, now=0)
        assert not state.check(2, now=900)
        assert state.check(3, now=1000)

    def test_violations_total(self):
        state = GuardState(PortGuard(min_value=0, min_interval_us=10))
        state.check(5, 0)
        state.check(-1, 1)
        state.check(5, 2)
        assert state.violations == 2

    def test_guard_only_on_service_out(self):
        with pytest.raises(ContextError):
            VirtualPortSpec(
                "V1", VirtualPortKind.SERVICE_IN, "p", "e",
                guard=PortGuard(),
            )

    def test_service_port_direction_validated(self):
        with pytest.raises(ConfigurationError):
            ServicePort("V1", "p", "in", INT16, guard=PortGuard())


def build_guarded_host(guard):
    spec = PluginSwcSpec(
        "GuardedHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16, guard=guard),
        ],
    )
    desc = SystemDescription("guarded")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    from benchmarks._scenarios import make_sink_type

    desc.add_component("sink", make_sink_type(), "ecu1", priority=6)
    desc.connect("host", "svc_out", "sink", "in")
    system = build_system(desc, tracer=TelemetryBus())
    system.boot_all()
    system.sim.run_for(5 * MS)
    pirte = get_pirte(system.instance("host"))
    message = make_install(
        "fwd", "ecu1", "host",
        ports=[("in", 0), ("out", 1)],
        links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
        source=FORWARD_SOURCE,
    )
    assert pirte.install(message).ok
    system.sim.run_for(5 * MS)
    return system, pirte


class TestGuardedRouting:
    def test_out_of_range_write_blocked(self):
        guard = PortGuard(min_value=0, max_value=100)
        system, pirte = build_guarded_host(guard)
        plugin = pirte.plugin("fwd")
        pirte.plugin_write(plugin, 1, 9999)  # blocked
        pirte.plugin_write(plugin, 1, 42)    # passes
        system.sim.run_for(20 * MS)
        got = [v for __, v in system.instance("sink").state.get("got", [])]
        assert got == [42]
        assert pirte.guard_rejections == 1
        assert pirte.guards["VOUT"].range_violations == 1

    def test_rate_limit_blocks_flooding(self):
        guard = PortGuard(min_interval_us=50 * MS)
        system, pirte = build_guarded_host(guard)
        plugin = pirte.plugin("fwd")
        for i in range(10):
            pirte.plugin_write(plugin, 1, i)
        system.sim.run_for(20 * MS)
        got = [v for __, v in system.instance("sink").state.get("got", [])]
        assert got == [0]  # only the first write within the window
        assert pirte.guards["VOUT"].rate_violations == 9

    def test_pirtes_sharing_a_guard_rate_limit_independently(self):
        # One declared guard is a policy; two systems built from it
        # (two vehicles of one model) each keep their own window.
        guard = PortGuard(min_interval_us=50 * MS)
        system_a, pirte_a = build_guarded_host(guard)
        system_b, pirte_b = build_guarded_host(guard)
        pirte_a.plugin_write(pirte_a.plugin("fwd"), 1, 1)
        pirte_b.plugin_write(pirte_b.plugin("fwd"), 1, 2)
        for system in (system_a, system_b):
            system.sim.run_for(20 * MS)
        assert pirte_a.guard_rejections == pirte_b.guard_rejections == 0
        got_b = [v for __, v in system_b.instance("sink").state["got"]]
        assert got_b == [2]

    def test_guard_rejections_traced(self):
        guard = PortGuard(max_value=10)
        system, pirte = build_guarded_host(guard)
        plugin = pirte.plugin("fwd")
        pirte.plugin_write(plugin, 1, 11)
        tracer = system.tracer
        assert len(tracer.events("pirte", "guard_rejected")) == 1

    def test_guard_visible_in_diagnostics_counters(self):
        guard = PortGuard(max_value=10)
        system, pirte = build_guarded_host(guard)
        plugin = pirte.plugin("fwd")
        pirte.plugin_write(plugin, 1, 99)
        assert pirte.guard_rejections == 1
