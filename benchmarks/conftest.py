"""Benchmark harness configuration.

Makes the repo root importable so benchmarks can reuse the scenario
builders in ``benchmarks/_scenarios.py``, and hosts the shared
``BENCH_*.json`` section writer.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def record_section(output: Path, section: str, payload) -> None:
    """Merge one section into a ``BENCH_*.json`` file (untracked)."""
    data = {}
    if output.exists():
        data = json.loads(output.read_text())
    data[section] = payload
    output.write_text(json.dumps(data, indent=2) + "\n")
