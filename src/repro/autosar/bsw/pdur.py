"""PDU router: the switch between COM and the bus interfaces.

In full AUTOSAR the PduR fans PDUs out to multiple bus interfaces and
gateway paths; here it routes between one COM stack and one CanIf, while
still keeping the layering (COM never touches CanIf directly), so
gatewaying and multi-bus ECUs can be added without touching COM.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.autosar.bsw.canif import CanInterface


class PduRouter:
    """Routes transmit PDUs down and received PDUs up."""

    def __init__(self, canif: CanInterface) -> None:
        self.canif = canif
        self.canif.set_upper_layer(self._rx_indication)
        self._upper: Optional[Callable[[int, bytes], None]] = None
        self.routed_tx = 0
        self.routed_rx = 0

    def set_upper_layer(self, callback: Callable[[int, bytes], None]) -> None:
        """Install the COM stack's RX indication callback."""
        self._upper = callback

    def transmit(self, pdu_id: int, payload: bytes) -> bool:
        """Route a PDU toward the CAN interface."""
        self.routed_tx += 1
        return self.canif.transmit(pdu_id, payload)

    def _rx_indication(self, pdu_id: int, payload: bytes) -> None:
        self.routed_rx += 1
        if self._upper is not None:
            self._upper(pdu_id, payload)


__all__ = ["PduRouter"]
