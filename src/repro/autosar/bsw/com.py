"""The COM module: signal-level communication over PDUs.

COM is where the RTE's inter-ECU writes become bus traffic.  Each signal
is configured with a data type and a PDU id (allocated by the RTE
generator so that sender and receiver agree), and every write is sent
at once.  Fixed-size signals are transmitted directly in one PDU;
variable-size byte signals are segmented through the transport protocol
(``repro.autosar.bsw.tp``), which is how multi-kilobyte plug-in
installation packages traverse the in-vehicle network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.autosar.bsw.canif import CanInterface
from repro.autosar.bsw.tp import Reassembler, segment
from repro.autosar.types import DataType
from repro.can.controller import CanController
from repro.errors import ComError


@dataclass(frozen=True)
class SignalConfig:
    """Static configuration of one COM signal."""

    name: str
    signal_id: int
    dtype: DataType
    pdu_id: int

    @property
    def uses_tp(self) -> bool:
        """Variable-size signals travel segmented over TP."""
        return not self.dtype.fixed_size


class ComStack:
    """Per-ECU COM module over the ECU's CAN controller.

    It builds the ECU's CAN interface (:attr:`canif`) with itself as
    the receiving upper layer.
    """

    def __init__(self, controller: CanController) -> None:
        self.canif = CanInterface(controller, self._on_pdu)
        controller.add_tx_confirm_hook(self._on_tx_confirm)
        self._tx_signals: dict[int, SignalConfig] = {}
        self._rx_signals_by_pdu: dict[int, SignalConfig] = {}
        self._reassemblers: dict[int, Reassembler] = {}
        self._listeners: dict[int, list[Callable[[Any], None]]] = {}
        # Software transmit backlog: segments the controller could not
        # take yet.  Drained on every TX confirmation (flow control).
        self._tx_backlog: deque[tuple[int, bytes]] = deque()
        self.signals_sent = 0
        self.signals_received = 0

    def configure_tx_signal(self, config: SignalConfig) -> None:
        """Register a transmit signal."""
        if config.signal_id in self._tx_signals:
            raise ComError(f"tx signal {config.signal_id} already configured")
        self._tx_signals[config.signal_id] = config

    def configure_rx_signal(self, config: SignalConfig) -> None:
        """Register a receive signal (keyed by its PDU)."""
        if config.pdu_id in self._rx_signals_by_pdu:
            raise ComError(f"rx PDU {config.pdu_id} already configured")
        self._rx_signals_by_pdu[config.pdu_id] = config
        if config.uses_tp:
            self._reassemblers[config.pdu_id] = Reassembler()

    def subscribe(
        self, signal_id: int, callback: Callable[[Any], None]
    ) -> None:
        """Deliver decoded values of ``signal_id`` to ``callback``."""
        self._listeners.setdefault(signal_id, []).append(callback)

    def send_signal(self, signal_id: int, value: Any) -> bool:
        """Encode and transmit one signal value.

        Segments that the controller cannot accept immediately are
        parked in a software backlog and fed in on TX confirmations, so
        arbitrarily large TP payloads never overrun the controller.
        """
        config = self._tx_signals.get(signal_id)
        if config is None:
            raise ComError(f"unknown tx signal {signal_id}")
        payload = config.dtype.encode(value)
        self.signals_sent += 1
        if config.uses_tp:
            for chunk in segment(payload):
                self._tx_backlog.append((config.pdu_id, chunk))
        else:
            if len(payload) > 8:
                raise ComError(
                    f"fixed signal {config.name} encodes to {len(payload)} "
                    f"bytes; classical CAN PDUs carry at most 8"
                )
            self._tx_backlog.append((config.pdu_id, payload))
        self._pump()
        return True

    def _pump(self) -> None:
        """Feed backlog segments into the controller until it refuses."""
        while self._tx_backlog:
            pdu_id, chunk = self._tx_backlog[0]
            if not self.canif.transmit(pdu_id, chunk):
                return
            self._tx_backlog.popleft()

    def _on_tx_confirm(self, _frame) -> None:
        self._pump()

    def _on_pdu(self, pdu_id: int, payload: bytes) -> None:
        config = self._rx_signals_by_pdu.get(pdu_id)
        if config is None:
            return
        if config.uses_tp:
            complete = self._reassemblers[pdu_id].feed(payload)
            if complete is None:
                return
            value: Any = config.dtype.decode(complete)
        else:
            value = config.dtype.decode(payload)
        self.signals_received += 1
        for callback in self._listeners.get(config.signal_id, []):
            callback(value)


__all__ = ["SignalConfig", "ComStack"]
