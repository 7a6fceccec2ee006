"""CAN frame model.

Classical CAN with 11-bit identifiers and up to 8 data bytes, which is
what the ArcticCore-based prototype in the paper uses between its two
Raspberry-Pi ECUs.  Frame length on the wire is approximated with the
standard worst-case stuffing formula so the bus model yields realistic
serialization delays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CanFrameError

#: Highest valid 11-bit CAN identifier.
MAX_STD_ID = 0x7FF
#: Maximum data bytes in a classical CAN frame.
MAX_DLC = 8


@dataclass(frozen=True)
class CanFrame:
    """An immutable classical CAN data frame."""

    can_id: int
    data: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= MAX_STD_ID:
            raise CanFrameError(
                f"CAN id {self.can_id:#x} outside 11-bit range"
            )
        if len(self.data) > MAX_DLC:
            raise CanFrameError(
                f"CAN payload of {len(self.data)} bytes exceeds {MAX_DLC}"
            )

    @property
    def dlc(self) -> int:
        """Data length code (payload byte count)."""
        return len(self.data)

    def bit_length(self) -> int:
        """Approximate frame size on the wire, including stuff bits.

        Uses the standard formula for classical CAN with 11-bit ids:
        44 fixed bits + 8 per data byte, with worst-case bit stuffing on
        the 34 + 8n stuffable bits, plus 3-bit interframe space.
        """
        n = self.dlc
        raw = 44 + 8 * n
        stuffed = raw + (34 + 8 * n - 1) // 4
        return stuffed + 3

    def wins_arbitration_over(self, other: "CanFrame") -> bool:
        """CAN arbitration: numerically lower identifier dominates."""
        return self.can_id < other.can_id


__all__ = ["CanFrame", "MAX_STD_ID", "MAX_DLC"]
