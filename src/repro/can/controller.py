"""CAN controller: per-node TX queue and RX filtering/dispatch.

The controller is what the BSW's CAN interface (``repro.autosar.bsw.canif``)
talks to.  It keeps a priority-ordered transmit queue (lowest identifier
first, FIFO within one identifier, like a real mailbox-based controller
configured for id-priority) and delivers received frames to subscribers
registered per CAN identifier.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.can.bus import CanBus
from repro.can.frame import CanFrame
from repro.errors import CanError


class CanController:
    """One node's attachment point to a :class:`CanBus`."""

    def __init__(self, name: str, tx_queue_depth: int = 64) -> None:
        self.name = name
        self.bus: Optional[CanBus] = None
        self.tx_queue_depth = tx_queue_depth
        self._tx: list[tuple[int, int, CanFrame]] = []
        self._seq = itertools.count()
        self._rx_handlers: dict[int, list[Callable[[CanFrame], None]]] = {}
        self._promiscuous: list[Callable[[CanFrame], None]] = []
        self._tx_confirm_hooks: list[Callable[[CanFrame], None]] = []
        self.tx_count = 0
        self.rx_count = 0
        self.tx_overruns = 0

    def transmit(self, frame: CanFrame) -> bool:
        """Queue ``frame`` for transmission.

        Returns False (and counts an overrun) when the TX queue is full,
        mirroring a controller mailbox overrun rather than raising: COM
        stacks treat this as a recoverable condition.
        """
        if self.bus is None:
            raise CanError(f"controller {self.name} not attached to a bus")
        if len(self._tx) >= self.tx_queue_depth:
            self.tx_overruns += 1
            return False
        heapq.heappush(self._tx, (frame.can_id, next(self._seq), frame))
        self.bus.notify_pending()
        return True

    def peek_tx(self) -> Optional[CanFrame]:
        """Highest-priority queued frame, without removing it."""
        if not self._tx:
            return None
        return self._tx[0][2]

    def pop_tx(self) -> Optional[CanFrame]:
        """Remove and return the highest-priority queued frame."""
        if not self._tx:
            return None
        return heapq.heappop(self._tx)[2]

    def subscribe(
        self, can_id: int, handler: Callable[[CanFrame], None]
    ) -> None:
        """Deliver received frames with ``can_id`` to ``handler``."""
        self._rx_handlers.setdefault(can_id, []).append(handler)

    def subscribe_all(self, handler: Callable[[CanFrame], None]) -> None:
        """Deliver every received frame to ``handler`` (diagnostic tap)."""
        self._promiscuous.append(handler)

    def on_bus_frame(self, frame: CanFrame) -> None:
        """Bus callback: a frame from another node completed."""
        handlers = self._rx_handlers.get(frame.can_id)
        if handlers or self._promiscuous:
            self.rx_count += 1
        if handlers:
            for handler in handlers:
                handler(frame)
        for handler in self._promiscuous:
            handler(frame)

    def add_tx_confirm_hook(self, hook: Callable[[CanFrame], None]) -> None:
        """Run ``hook`` each time one of our frames finishes transmitting.

        Upper layers (COM) use this as the flow-control signal to feed
        the next buffered segment into the controller.
        """
        self._tx_confirm_hooks.append(hook)

    def on_tx_confirm(self, frame: CanFrame) -> None:
        """Bus callback: our own frame finished transmitting."""
        self.tx_count += 1
        for hook in self._tx_confirm_hooks:
            hook(frame)


__all__ = ["CanController"]
