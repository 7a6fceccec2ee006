"""Unit tests for server-side context generation."""

from repro.core.context import LinkKind
from repro.server import (
    App,
    ConnectionKind,
    ConnectionSpec,
    ExternalSpec,
    InstallStatus,
    InstalledApp,
    InstalledPlugin,
    PluginDescriptor,
    PortIdAllocator,
    SwConf,
    generate_packages,
)
from tests.helpers import make_binary
from tests.test_server_models import make_test_vehicle


def two_plugin_app(cross_swc=True):
    pa = PluginDescriptor("pa", make_binary(), ("out",))
    pb = PluginDescriptor("pb", make_binary(), ("in", "svc"))
    placements = (
        ("pa", "swc1"),
        ("pb", "swc2" if cross_swc else "swc1"),
    )
    connections = (
        ConnectionSpec(
            ConnectionKind.PLUGIN, "pa", "out",
            target_plugin="pb", target_port="in",
        ),
        ConnectionSpec(
            ConnectionKind.VIRTUAL, "pb", "svc", target_virtual="V4"
        ),
    )
    conf = SwConf("m1", placements, connections)
    return App("x", "2.0", {"pa": pa, "pb": pb}, [conf]), conf


class TestPortIdAllocator:
    def test_fresh_vehicle_starts_at_zero(self):
        allocator = PortIdAllocator(make_test_vehicle())
        assert allocator.allocate("swc1") == 0
        assert allocator.allocate("swc1") == 1
        assert allocator.allocate("swc2") == 0  # per-SW-C scope

    def test_skips_ids_of_installed_plugins(self):
        vehicle = make_test_vehicle()
        installed = InstalledApp("a", "1.0", InstallStatus.ACTIVE)
        installed.plugins.append(InstalledPlugin("p", "swc1", "ECU1", (0, 2)))
        vehicle.conf.installed["a"] = installed
        allocator = PortIdAllocator(vehicle)
        assert allocator.allocate("swc1") == 1
        assert allocator.allocate("swc1") == 3


class TestGeneratePackages:
    def test_one_package_per_plugin(self):
        app, conf = two_plugin_app()
        packages = generate_packages(app, conf, make_test_vehicle())
        assert sorted(p.message.plugin_name for p in packages) == ["pa", "pb"]

    def test_target_addressing(self):
        app, conf = two_plugin_app()
        packages = {
            p.message.plugin_name: p.message
            for p in generate_packages(app, conf, make_test_vehicle())
        }
        assert packages["pa"].target_swc == "swc1"
        assert packages["pa"].target_ecu == "ECU1"
        assert packages["pb"].target_swc == "swc2"
        assert packages["pb"].target_ecu == "ECU2"

    def test_cross_swc_becomes_virtual_remote(self):
        """The paper's 'special care': recipient ids embedded in sender."""
        app, conf = two_plugin_app(cross_swc=True)
        vehicle = make_test_vehicle()
        packages = {
            p.message.plugin_name: p.message
            for p in generate_packages(app, conf, vehicle)
        }
        pa_link = packages["pa"].plc.links[0]
        assert pa_link.kind is LinkKind.VIRTUAL_REMOTE
        assert pa_link.target_virtual == "V0"  # swc1's relay toward swc2
        # The remote id equals pb's 'in' port id in its PIC.
        pb_in_id = packages["pb"].pic.id_by_name("in")
        assert pa_link.target_port_id == pb_in_id

    def test_same_swc_becomes_plugin_port(self):
        app, conf = two_plugin_app(cross_swc=False)
        packages = {
            p.message.plugin_name: p.message
            for p in generate_packages(app, conf, make_test_vehicle())
        }
        pa_link = packages["pa"].plc.links[0]
        assert pa_link.kind is LinkKind.PLUGIN_PORT
        assert pa_link.target_port_id == packages["pb"].pic.id_by_name("in")

    def test_ids_unique_within_swc_across_plugins(self):
        app, conf = two_plugin_app(cross_swc=False)
        packages = generate_packages(app, conf, make_test_vehicle())
        all_ids = [pid for p in packages for pid in p.port_ids]
        assert len(set(all_ids)) == len(all_ids)

    def test_ids_avoid_installed_apps(self):
        vehicle = make_test_vehicle()
        installed = InstalledApp("other", "1.0", InstallStatus.ACTIVE)
        installed.plugins.append(
            InstalledPlugin("q", "swc1", "ECU1", (0, 1, 2))
        )
        vehicle.conf.installed["other"] = installed
        app, conf = two_plugin_app()
        packages = {
            p.message.plugin_name: p
            for p in generate_packages(app, conf, vehicle)
        }
        assert all(pid >= 3 for pid in packages["pa"].port_ids)

    def test_ecc_generated_for_externals(self):
        pa = PluginDescriptor("pa", make_binary(), ("cmd",))
        conf = SwConf(
            "m1",
            placements=(("pa", "swc1"),),
            connections=(
                ConnectionSpec(ConnectionKind.UNCONNECTED, "pa", "cmd"),
            ),
            externals=(ExternalSpec("9.9.9.9:1", "Wheels", "pa", "cmd"),),
        )
        app = App("x", "1.0", {"pa": pa}, [conf])
        packages = generate_packages(app, conf, make_test_vehicle())
        ecc = packages[0].message.ecc
        assert len(ecc.entries) == 1
        entry = ecc.entries[0]
        assert entry.message_name == "Wheels"
        assert entry.recipient_ecu == "ECU1"
        assert entry.port_id == packages[0].message.pic.id_by_name("cmd")

    def test_paper_plc_shape(self):
        """The COM plug-in's PLC matches the paper's structure:
        {P0-, P1-, P2-V0.P0, P3-V0.P1}."""
        com = PluginDescriptor(
            "COM", make_binary(), ("p0", "p1", "p2", "p3")
        )
        op = PluginDescriptor("OP", make_binary(), ("p0", "p1"))
        conf = SwConf(
            "m1",
            placements=(("COM", "swc1"), ("OP", "swc2")),
            connections=(
                ConnectionSpec(ConnectionKind.UNCONNECTED, "COM", "p0"),
                ConnectionSpec(ConnectionKind.UNCONNECTED, "COM", "p1"),
                ConnectionSpec(
                    ConnectionKind.PLUGIN, "COM", "p2",
                    target_plugin="OP", target_port="p0",
                ),
                ConnectionSpec(
                    ConnectionKind.PLUGIN, "COM", "p3",
                    target_plugin="OP", target_port="p1",
                ),
            ),
        )
        app = App("rc", "1.0", {"COM": com, "OP": op}, [conf])
        packages = {
            p.message.plugin_name: p.message
            for p in generate_packages(app, conf, make_test_vehicle())
        }
        plc = packages["COM"].plc
        assert plc.describe() == "{P0-, P1-, P2-V0.P0, P3-V0.P1}"
