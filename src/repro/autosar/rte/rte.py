"""The runtime environment: realisation of the VFB on one ECU.

The RTE holds the routing tables produced by the generator and
implements the component-facing API (``write``/``read`` via
:class:`~repro.autosar.swc.ComponentInstance`).  Local routes copy data
directly into the receiver's port buffer and fire data-received
activations through the OS; cross-ECU routes hand the encoded value to
COM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.autosar.ports import PortInstance
from repro.autosar.swc import ComponentInstance
from repro.errors import PortError, RteError
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus


@dataclass(frozen=True)
class LocalRoute:
    """Same-ECU S/R route: deliver straight into a port buffer."""

    to_instance: str
    to_port: str


@dataclass(frozen=True)
class ComRoute:
    """Cross-ECU S/R route: transmit through a COM signal."""

    signal_id: int


class Rte:
    """Per-ECU runtime environment."""

    def __init__(
        self,
        ecu_name: str,
        sim: Simulator,
        com_send: Callable[[int, Any], bool],
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.ecu_name = ecu_name
        self.sim = sim
        self.tracer = tracer
        self._com_send = com_send
        self.instances: dict[str, ComponentInstance] = {}
        # (instance, port, element) -> routes
        self._sr_routes: dict[tuple[str, str, str], list[Any]] = {}
        # (instance, port, element) -> activation hooks
        self._delivery_hooks: dict[
            tuple[str, str, str], list[Callable[[], None]]
        ] = {}
        self.writes = 0

    # -- wiring (generator-facing) ---------------------------------------

    def register_instance(self, instance: ComponentInstance) -> None:
        """Bind a component instance to this RTE."""
        if instance.name in self.instances:
            raise RteError(
                f"duplicate instance {instance.name!r} on {self.ecu_name}"
            )
        self.instances[instance.name] = instance
        instance.rte = self

    def instance(self, name: str) -> ComponentInstance:
        """Look up a bound instance."""
        try:
            return self.instances[name]
        except KeyError:
            raise RteError(
                f"RTE on {self.ecu_name} has no instance {name!r}"
            ) from None

    def add_sr_route(
        self, instance: str, port: str, element: str, route: Any
    ) -> None:
        """Install a sender-receiver route for a provided port element."""
        self._sr_routes.setdefault((instance, port, element), []).append(route)

    def add_delivery_hook(
        self, instance: str, port: str, element: str, hook: Callable[[], None]
    ) -> None:
        """Run ``hook`` after each delivery to the given port element.

        The generator uses this to turn data-received events into task
        activations; the PIRTE uses it to wake the plug-in dispatcher.
        """
        self._delivery_hooks.setdefault((instance, port, element), []).append(hook)

    # -- component-facing API --------------------------------------------

    def write(
        self,
        instance: ComponentInstance,
        port: str,
        element: str,
        value: Any,
    ) -> None:
        """Rte_Write: fan ``value`` out to every configured route."""
        prototype = instance.ctype.port(port)
        if not prototype.is_provided:
            raise PortError(
                f"write needs a provided S/R port; {instance.name}.{port} "
                f"is {prototype.direction.value}"
            )
        prototype.interface.element(element)
        self.writes += 1
        if self.tracer is not None:
            self.tracer.publish(
                "rte", "write", self.sim.now, ecu=self.ecu_name,
                src=f"{instance.name}.{port}.{element}",
            )
        routes = self._sr_routes.get((instance.name, port, element), [])
        for route in routes:
            if isinstance(route, LocalRoute):
                self.deliver_local(route.to_instance, route.to_port, element, value)
            elif isinstance(route, ComRoute):
                self._com_send(route.signal_id, value)
            else:  # pragma: no cover - defensive
                raise RteError(f"unknown route type {route!r}")

    def deliver_local(
        self, to_instance: str, to_port: str, element: str, value: Any
    ) -> None:
        """Deliver a value into a local port buffer and fire hooks.

        Called both for local routes and by the generator's COM receive
        subscriptions (the last hop of a cross-ECU route).
        """
        receiver = self.instance(to_instance)
        port_instance: PortInstance = receiver.port(to_port)
        delivered = port_instance.deliver(element, value)
        if not delivered:
            if self.tracer is not None:
                self.tracer.publish(
                    "rte", "overflow", self.sim.now, ecu=self.ecu_name,
                    dst=f"{to_instance}.{to_port}.{element}",
                )
            return
        if self.tracer is not None:
            self.tracer.publish(
                "rte", "deliver", self.sim.now, ecu=self.ecu_name,
                dst=f"{to_instance}.{to_port}.{element}",
            )
        for hook in self._delivery_hooks.get(
            (to_instance, to_port, element), []
        ):
            hook()


__all__ = ["Rte", "LocalRoute", "ComRoute"]
