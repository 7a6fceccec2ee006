"""``scripts/lint_invariants.py``: the unused-import rule, the allowlist."""

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
