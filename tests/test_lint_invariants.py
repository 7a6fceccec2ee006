"""``scripts/lint_invariants.py``: the unused-import, unreferenced-def,
kernel-private, fidelity-neutral and one-server-link rules, the
allowlist."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "lint_invariants.py"
_spec = importlib.util.spec_from_file_location("lint_invariants", SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def unused(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(source)
    return [detail for __, __, __, detail in lint.unused_imports(path)]


def test_flags_an_unused_import(tmp_path):
    source = (
        "import os\n"
        "from typing import Any, Optional\n"
        "\n"
        "def f(x: Optional[int]) -> None:\n"
        "    import json\n"
        "    return None\n"
    )
    assert unused(tmp_path, source) == ["os", "Any", "json"]


def test_names_in_all_are_used(tmp_path):
    source = "from os.path import join\n\n__all__ = ['join']\n"
    assert unused(tmp_path, source) == []


def test_names_in_quoted_annotations_are_used(tmp_path):
    source = (
        "from typing import TYPE_CHECKING\n"
        "\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "\n"
        "def f(x: 'Decimal') -> 'list[Fraction]':\n"
        "    return []\n"
    )
    assert unused(tmp_path, source) == []


def test_init_modules_are_not_checked(tmp_path):
    assert unused(tmp_path, "import os\n", name="__init__.py") == []


def test_an_import_probe_is_not_flagged(tmp_path):
    source = (
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json_missing = True\n"
    )
    assert unused(tmp_path, source) == []


def test_a_stale_allowlist_entry_fails(tmp_path, monkeypatch, capsys):
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text(
        lint.ALLOWLIST.read_text() + "src/repro/gone.py::f::sim-access\n"
    )
    monkeypatch.setattr(lint, "ALLOWLIST", allowlist)
    assert lint.main() == 1
    errors = capsys.readouterr().err
    assert "FAIL stale allowlist entry src/repro/gone.py::f::sim-access" in (
        errors
    )


def unreferenced(tmp_path, source, reader=""):
    defining = tmp_path / "defs.py"
    defining.write_text(source)
    reading = tmp_path / "uses.py"
    reading.write_text(reader)
    found = lint.unreferenced_defs([defining], [defining, reading])
    return [(scope, detail) for scope, __, __, detail in found[defining]]


def test_flags_a_def_nothing_reads(tmp_path):
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "\n"
        "    def grow(self):\n"
        "        return self.size + 1\n"
        "\n"
        "    def shrink(self):\n"
        "        return self.size - 1\n"
        "\n"
        "def make(size):\n"
        "    return Box()\n"
    )
    assert unreferenced(tmp_path, source, "Box().grow()\n") == [
        ("Box.shrink", "shrink"), ("make", "make"),
    ]
    assert unreferenced(tmp_path, source, "Box().grow(make=1)\n") == [
        ("Box.shrink", "shrink"),
    ]


def test_a_read_inside_an_f_string_counts(tmp_path):
    source = "def label():\n    return 'x'\n"
    assert unreferenced(tmp_path, source) == [("label", "label")]
    assert unreferenced(tmp_path, source, "print(f'{label()}!')\n") == []


def test_an_allowlisted_def_passes(tmp_path, monkeypatch, capsys):
    key = "src/repro/server/gateway/http.py::_Handler.do_GET::unreferenced-def"
    assert key in lint.load_allowlist()
    assert lint.main() == 0
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text(lint.ALLOWLIST.read_text().replace(key, ""))
    monkeypatch.setattr(lint, "ALLOWLIST", allowlist)
    assert lint.main() == 1
    assert "[unreferenced-def] do_GET in _Handler.do_GET" in (
        capsys.readouterr().err
    )


def unread(tmp_path, source, reader=""):
    defining = tmp_path / "defs.py"
    defining.write_text(source)
    reading = tmp_path / "uses.py"
    reading.write_text(reader)
    found = lint.unread_attributes([defining], [defining, reading])
    return [(scope, detail) for scope, __, __, detail in found[defining]]


COUNTER = (
    "class Link:\n"
    "    def __init__(self):\n"
    "        self.sent = 0\n"
    "        self.bytes_out, self.retries = 0, 0\n"
    "\n"
    "    def send(self, raw):\n"
    "        self.sent += 1\n"
    "        self.bytes_out += len(raw)\n"
    "        self.retries = self.retries\n"
)


def test_flags_an_attribute_that_is_only_written(tmp_path):
    # ``+=`` writes; it is not a read.  Each attribute is flagged once.
    assert unread(tmp_path, COUNTER) == [
        ("Link.sent", "sent"), ("Link.bytes_out", "bytes_out"),
    ]


def test_a_read_in_another_file_counts(tmp_path):
    reader = "def total(link):\n    return link.sent + link.bytes_out\n"
    assert unread(tmp_path, COUNTER, reader) == []


def test_a_getattr_string_or_keyword_counts(tmp_path):
    assert unread(tmp_path, COUNTER, "getattr(link, 'sent')\n") == [
        ("Link.bytes_out", "bytes_out"),
    ]
    assert unread(tmp_path, COUNTER, "report(bytes_out=1)\n") == [
        ("Link.sent", "sent"),
    ]
    # A string that is not an identifier reads nothing.
    assert unread(tmp_path, COUNTER, "print('sent!', 'bytes_out x')\n") == [
        ("Link.sent", "sent"), ("Link.bytes_out", "bytes_out"),
    ]


def kernel_private(source, rel="src/repro/autosar/os/scheduler.py"):
    return [
        detail for __, rule, __, detail in lint.lint_source(source, rel)
        if rule == lint.RULE_KERNEL_PRIVATE
    ]


def test_flags_private_kernel_state_reached_through_a_simulator():
    source = (
        "def f(sim, self, cpu):\n"
        "    sim._at = 0\n"
        "    self.sim._queue.clear()\n"
        "    self._sim._events\n"
        "    cpu.ecu.sim._seq\n"
        "    return sim.now, self.sim.schedule, cpu.events.count\n"
    )
    assert kernel_private(source) == [
        "sim._at", "self.sim._queue", "self._sim._events", "cpu.ecu.sim._seq",
    ]


def test_the_kernel_may_touch_its_own_state():
    source = "def f(sim):\n    return sim._at\n"
    assert kernel_private(source, rel="src/repro/sim/kernel.py") == []



def fidelity_neutral(source, rel):
    return [
        detail for __, rule, __, detail in lint.lint_source(source, rel)
        if rule == lint.RULE_FIDELITY_NEUTRAL
    ]


PIRTE_REACH = (
    "def f(platform, vin):\n"
    "    vehicle = platform.vehicle(vin)\n"
    "    return vehicle.pirte_of('swc1').plugins, vehicle.ecm_pirte\n"
)


def test_flags_a_pirte_reach_in_the_campaign_and_server_layers():
    assert fidelity_neutral(PIRTE_REACH, "src/repro/campaign/faults.py") == [
        "vehicle.pirte_of", "vehicle.ecm_pirte",
    ]
    assert fidelity_neutral(
        PIRTE_REACH, "src/repro/server/services/deployments.py"
    ) == ["vehicle.pirte_of", "vehicle.ecm_pirte"]


def test_a_pirte_reach_elsewhere_is_clean():
    assert fidelity_neutral(PIRTE_REACH, "src/repro/fes/vehicle.py") == []


def one_server_link(source, rel):
    return [
        detail for __, rule, __, detail in lint.lint_source(source, rel)
        if rule == lint.RULE_ONE_SERVER_LINK
    ]


DIALS = (
    "def f(self, fabric, bus):\n"
    "    fabric.connect('srv:1', 'VIN-1', print)\n"
    "    self.fabric.connect('srv:1', 'VIN-1', print)\n"
    "    self._fabric.connect('srv:1', 'VIN-1', print)\n"
    "    self.uplink.fabric.connect('phone:1', 'VIN-1:ext', print)\n"
    "    bus.connect(print)\n"
    "    return self.uplink.dial(), fabric.listen\n"
)


def test_flags_a_fabric_dial_outside_the_network_layer():
    assert one_server_link(DIALS, "src/repro/fes/statistical.py") == [
        "fabric.connect", "self.fabric.connect", "self._fabric.connect",
        "self.uplink.fabric.connect",
    ]


def test_the_network_layer_may_dial():
    assert one_server_link(DIALS, "src/repro/network/sockets.py") == []
