"""CAN bus with priority arbitration, driven by the simulation kernel.

The bus accepts transmit requests from attached :class:`CanController`
instances.  When the medium is idle it runs an arbitration round over all
pending controllers: the lowest pending identifier wins, its frame
occupies the bus for its serialized duration, and on completion it is
broadcast to every *other* controller (a node does not receive its own
frames, matching real CAN behaviour with self-reception disabled).
"""

from __future__ import annotations

from typing import Optional

from repro.can.frame import CanFrame
from repro.errors import CanError
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus


class CanBus:
    """Shared broadcast medium with identifier-priority arbitration."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "can0",
        bitrate: int = 500_000,
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        if bitrate <= 0:
            raise CanError(f"bitrate must be positive (got {bitrate})")
        self.sim = sim
        self.name = name
        self.bitrate = bitrate
        self.tracer = tracer
        self.controllers: list["CanController"] = []
        self._busy = False
        self.frames_transferred = 0
        self.bits_transferred = 0

    def attach(self, controller: "CanController") -> None:
        """Attach a controller to the bus."""
        if controller.bus is not None and controller.bus is not self:
            raise CanError(
                f"controller {controller.name} already on bus "
                f"{controller.bus.name}"
            )
        if controller not in self.controllers:
            self.controllers.append(controller)
            controller.bus = self

    def frame_duration_us(self, frame: CanFrame) -> int:
        """Serialized duration of ``frame`` at this bus's bitrate."""
        return max(1, (frame.bit_length() * 1_000_000) // self.bitrate)

    def notify_pending(self) -> None:
        """A controller enqueued a frame; start arbitration if idle."""
        if not self._busy:
            self._arbitrate()

    def _arbitrate(self) -> None:
        if self._busy:
            return
        winner: Optional[CanController] = None
        best: Optional[CanFrame] = None
        for controller in self.controllers:
            head = controller.peek_tx()
            if head is None:
                continue
            if best is None or head.can_id < best.can_id:
                winner, best = controller, head
        if winner is None or best is None:
            return
        self._busy = True
        frame = winner.pop_tx()
        assert frame is not None
        duration = self.frame_duration_us(frame)
        if self.tracer is not None:
            self.tracer.publish(
                "can",
                "tx_start",
                self.sim.now,
                bus=self.name,
                can_id=frame.can_id,
                node=winner.name,
            )
        self.sim.schedule(
            duration,
            lambda: self._complete(winner, frame),
            f"can:{self.name}",
        )

    def _complete(self, sender: "CanController", frame: CanFrame) -> None:
        self._busy = False
        self.frames_transferred += 1
        self.bits_transferred += frame.bit_length()
        if self.tracer is not None:
            self.tracer.publish(
                "can",
                "tx_done",
                self.sim.now,
                bus=self.name,
                can_id=frame.can_id,
                node=sender.name,
            )
        sender.on_tx_confirm(frame)
        for controller in self.controllers:
            if controller is not sender:
                controller.on_bus_frame(frame)
        self._arbitrate()


__all__ = ["CanBus"]
