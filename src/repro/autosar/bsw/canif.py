"""CAN interface: binds PDU identifiers to CAN identifiers.

CanIf is the lowest BSW communication layer here: it owns the ECU's
:class:`~repro.can.controller.CanController`, maps transmit PDUs onto CAN
frames, and dispatches received frames upward by PDU id to the COM
module that built it.
"""

from __future__ import annotations

from typing import Callable

from repro.can.controller import CanController
from repro.can.frame import CanFrame
from repro.errors import ComError


class CanInterface:
    """PDU <-> CAN id mapping layer over one CAN controller."""

    def __init__(
        self,
        controller: CanController,
        upper: Callable[[int, bytes], None],
    ) -> None:
        self.controller = controller
        self._tx_map: dict[int, int] = {}
        self._rx_map: dict[int, int] = {}
        #: RX indication: called with (pdu_id, payload) per received frame.
        self._upper = upper

    def configure_tx(self, pdu_id: int, can_id: int) -> None:
        """Route transmit PDU ``pdu_id`` onto CAN identifier ``can_id``."""
        if pdu_id in self._tx_map:
            raise ComError(f"tx PDU {pdu_id} already configured")
        self._tx_map[pdu_id] = can_id

    def configure_rx(self, can_id: int, pdu_id: int) -> None:
        """Deliver frames with ``can_id`` upward as ``pdu_id``."""
        if can_id in self._rx_map:
            raise ComError(f"rx CAN id {can_id:#x} already configured")
        self._rx_map[can_id] = pdu_id
        self.controller.subscribe(can_id, self._on_frame)

    def transmit(self, pdu_id: int, payload: bytes) -> bool:
        """Send one PDU; returns False when the controller queue is full."""
        can_id = self._tx_map.get(pdu_id)
        if can_id is None:
            raise ComError(f"no tx route for PDU {pdu_id}")
        return self.controller.transmit(CanFrame(can_id, payload))

    def _on_frame(self, frame: CanFrame) -> None:
        pdu_id = self._rx_map.get(frame.can_id)
        if pdu_id is None:
            return
        self._upper(pdu_id, frame.data)


__all__ = ["CanInterface"]
