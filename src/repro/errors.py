"""Exception hierarchy shared across the repro library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
The hierarchy mirrors the subsystem layout: simulation kernel, network,
AUTOSAR substrate, VM, dynamic component model (core), and trusted server.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with an invalid delay."""


class NetworkError(ReproError):
    """Errors raised by the simulated network layer."""


class ChannelClosedError(NetworkError):
    """I/O was attempted on a closed channel endpoint."""


class AddressInUseError(NetworkError):
    """A listener was bound to an address that is already taken."""


class ConnectionRefusedError_(NetworkError):
    """No listener is bound at the dialled address."""


class CanError(ReproError):
    """Errors raised by the CAN bus simulation."""


class CanFrameError(CanError):
    """A CAN frame was constructed with invalid identifier or payload."""


class AutosarError(ReproError):
    """Errors raised by the AUTOSAR substrate."""


class OsekError(AutosarError):
    """Errors raised by the OSEK-style operating system layer."""


class ComError(AutosarError):
    """Errors raised by the BSW communication stack."""


class RteError(AutosarError):
    """Errors raised by the runtime environment."""


class PortError(AutosarError):
    """Invalid port construction, connection, or access."""


class ConfigurationError(AutosarError):
    """An invalid or inconsistent system description was supplied."""


class MemoryPoolError(AutosarError):
    """Static memory pool exhaustion or invalid block operations."""


class VmError(ReproError):
    """Errors raised by the plug-in virtual machine."""


class AssemblerError(VmError):
    """The plug-in assembler rejected a source program."""


class BinaryFormatError(VmError):
    """A plug-in binary container is malformed."""


class VmTrap(VmError):
    """The interpreter trapped: bad opcode, stack fault, or bounds fault."""


class FuelExhaustedError(VmTrap):
    """The plug-in exceeded its instruction (fuel) quota for one activation."""


class VmMemoryError(VmTrap):
    """The plug-in exceeded its memory quota."""


class PluginError(ReproError):
    """Errors raised by the dynamic component model (the paper's core)."""


class ContextError(PluginError):
    """A PIC/PLC/ECC context is malformed or references unknown ports."""


class LifecycleError(PluginError):
    """An operation was attempted in an invalid plug-in life-cycle state."""


class RoutingError(PluginError):
    """PIRTE could not route a message to a plug-in or virtual port."""


class PackagingError(PluginError):
    """An installation package is malformed or failed verification."""


class ServerError(ReproError):
    """Errors raised by the trusted server."""


class UnknownEntityError(ServerError):
    """A referenced user, vehicle, APP, or plug-in does not exist."""


class DuplicateEntityError(ServerError):
    """An entity with the same identity is already registered."""


class CompatibilityError(ServerError):
    """The compatibility check between an APP and a vehicle failed."""


class DeploymentTimeout(ReproError):
    """A deployment did not resolve within the simulated time budget."""
