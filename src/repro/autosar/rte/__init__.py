"""Runtime environment: the per-ECU routing runtime.

The generator that builds ECUs and wires their RTEs sits one layer up,
in :mod:`repro.autosar.generator`.
"""

from repro.autosar.rte.rte import ComRoute, LocalRoute, Rte, ServerRoute

__all__ = ["ComRoute", "LocalRoute", "Rte", "ServerRoute"]
