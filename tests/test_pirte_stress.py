"""Stress and churn tests for the PIRTE's dynamic part."""

from repro.autosar import UINT16, SystemDescription, build_system
from repro.core import PluginSwcSpec, ServicePort, get_pirte
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from tests.helpers import (
    link_plugin,
    link_virtual,
    make_install,
)


def build_host(vm_memory_blocks=2048):
    spec = PluginSwcSpec(
        "StressHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", UINT16),
            ServicePort("VOUT", "svc_out", "out", UINT16),
        ],
        vm_memory_blocks=vm_memory_blocks,
    )
    desc = SystemDescription("stress")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(5 * MS)
    return system, get_pirte(system.instance("host"))


class TestManyPlugins:
    def test_fifty_plugins_coexist(self):
        system, pirte = build_host()
        for k in range(50):
            message = make_install(
                f"p{k}", "ecu1", "host",
                ports=[(f"in{k}", 2 * k), (f"out{k}", 2 * k + 1)],
                links=[link_virtual(2 * k + 1, "VOUT")],
            )
            assert pirte.install(message).ok, f"plugin {k} failed"
        assert len(pirte.plugins) == 50
        # Each plugin routes independently.
        for k in range(0, 50, 7):
            pirte.deliver_to_port(2 * k, k)
        system.sim.run_for(50 * MS)
        assert pirte.activations_run >= 8

    def test_memory_exhaustion_fails_cleanly_midway(self):
        system, pirte = build_host(vm_memory_blocks=12)
        results = []
        for k in range(20):
            message = make_install(
                f"p{k}", "ecu1", "host",
                ports=[(f"in{k}", k)],
                links=[],
                mem_hint=64,
            )
            results.append(pirte.install(message).ok)
        assert any(results), "nothing installed"
        assert not all(results), "pool should have been exhausted"
        # Conservation: failures must not leak memory.
        installed = sum(results)
        used = pirte.pool.used_blocks
        pirte_plugins = list(pirte.plugins)
        for name in pirte_plugins:
            pirte.uninstall(name)
        assert pirte.pool.used_blocks == 0
        assert installed == len(pirte_plugins)

    def test_install_uninstall_churn(self):
        system, pirte = build_host()
        for round_no in range(30):
            name = f"gen{round_no}"
            message = make_install(
                name, "ecu1", "host",
                ports=[("in", 0), ("out", 1)],
                links=[
                    link_virtual(0, "VIN_"),
                    link_virtual(1, "VOUT"),
                ],
            )
            assert pirte.install(message).ok
            pirte.deliver_to_port(0, round_no)
            system.sim.run_for(10 * MS)
            assert pirte.uninstall(name).ok
        assert pirte.installs == 30
        assert pirte.uninstalls == 30
        assert pirte.pool.used_blocks == 0
        assert len(pirte.plugins) == 0

    def test_uninstall_cancels_pending_activations(self):
        system, pirte = build_host()
        message = make_install(
            "victim", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(1, "VOUT")],
        )
        assert pirte.install(message).ok
        # Queue a pile of activations, then remove before dispatch.
        for i in range(20):
            pirte.deliver_to_port(0, i)
        assert pirte.backlog > 0
        pirte.uninstall("victim")
        assert pirte.backlog == 0
        ran_before = pirte.activations_run
        system.sim.run_for(20 * MS)
        assert pirte.activations_run == ran_before

    def test_chain_of_plugins(self):
        """A 6-stage pipeline of plug-ins linked port-to-port."""
        system, pirte = build_host()
        stages = 6
        # Install back-to-front so PLUGIN_PORT targets always exist.
        for k in reversed(range(stages)):
            is_last = k == stages - 1
            links = (
                [link_virtual(2 * k + 1, "VOUT")]
                if is_last
                else [link_plugin(2 * k + 1, 2 * (k + 1))]
            )
            message = make_install(
                f"stage{k}", "ecu1", "host",
                ports=[("in", 2 * k), ("out", 2 * k + 1)],
                links=links,
            )
            assert pirte.install(message).ok
        deliveries = []
        system.instance("host")  # host exists
        # Tap VOUT by watching routed messages; simplest: count
        # activations after injecting at the head.
        pirte.deliver_to_port(0, 99)
        system.sim.run_for(100 * MS)
        # All stages activated exactly once.
        for k in range(stages):
            assert pirte.plugin(f"stage{k}").vm.activations == 1
