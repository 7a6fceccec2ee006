"""Basic software: the COM stack over the CAN interface, TP, memory pools.

COM hands each cross-ECU signal write straight to CanIf, segmented
through TP when the signal has a variable size.
"""

from repro.autosar.bsw.canif import CanInterface
from repro.autosar.bsw.com import ComStack, SignalConfig
from repro.autosar.bsw.memory import Allocation, MemoryPool
from repro.autosar.bsw.tp import MAX_TP_PAYLOAD, Reassembler, roundtrip, segment

__all__ = [
    "CanInterface",
    "ComStack",
    "SignalConfig",
    "Allocation",
    "MemoryPool",
    "MAX_TP_PAYLOAD",
    "Reassembler",
    "roundtrip",
    "segment",
]
