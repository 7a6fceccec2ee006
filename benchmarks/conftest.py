"""Benchmark harness configuration.

Makes the repo root importable so benchmarks can reuse the scenario
builders in ``benchmarks/_scenarios.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
