"""Per-layer span recording for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: :func:`install`
wraps public ``repro`` functions at class or module level before
anything is built, so no file under ``src/`` changes.  Three kinds of
boundary get a span:

* kernel events — every callback handed to ``Simulator.schedule``,
  ``schedule_at`` or ``schedule_many`` runs in a span attributed to the
  callback's ``__module__``;
* deliveries — handlers installed through ``Channel.on_receive``,
  ``Endpoint.on_receive`` and ``CanController.subscribe`` likewise;
* direct calls — the functions in :data:`DIRECT_CALLS`, attributed to
  the module that defines them.

A layer's self time is its spans' durations minus the time their child
spans cover, kept on a per-thread span stack.  A module-level function
that another module imported by name (``from x import f``) is replaced
in every loaded ``repro`` module that holds it; a reference captured
any other way would leave a layer with no calls, which the harness's
coverage check reports.

Counters the platform already keeps (VM fuel and traps, CAN frames,
channel messages, PIRTE drops) are read from the objects themselves by
:func:`object_counters`; the wrappers count only what no attribute
records: channel bytes and the largest gateway pump batch.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
import threading
from time import perf_counter

#: The 18 layers and the ``repro`` module prefixes each one covers; the
#: longest matching prefix wins.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "autosar.os": ("repro.autosar.os",),
    "autosar.rte": ("repro.autosar",),
    "autosar.bsw": ("repro.autosar.bsw",),
    "can": ("repro.can",),
    "vm": ("repro.vm",),
    "vm.verify": ("repro.vm.verify",),
    "core.pirte": ("repro.core",),
    "core.codec": (
        "repro.core.messages", "repro.core.wire", "repro.core.context",
    ),
    "network": ("repro.network",),
    "fes": ("repro.fes",),
    "api": ("repro.api",),
    "campaign": ("repro.campaign",),
    "server.contextgen": ("repro.server.contextgen",),
    "server.services": ("repro.server",),
    "server.pusher": ("repro.server.pusher",),
    "server.gateway": ("repro.server.gateway", "repro.gateway"),
    "telemetry": ("repro.telemetry",),
}

#: Time in code outside every layer (the harness, ``repro.analysis``).
OTHER = "other"

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items()
     for prefix in prefixes),
    key=lambda item: -len(item[0]),
)

#: ``module:qualname`` of every function that gets a direct-call span.
DIRECT_CALLS = (
    "repro.sim.kernel:Simulator.run",
    "repro.sim.kernel:Simulator.run_until",
    "repro.sim.kernel:Simulator.step",
    "repro.autosar.os.scheduler:Cpu.activate",
    "repro.autosar.runnable:Runnable.run",
    "repro.can.controller:CanController.transmit",
    "repro.vm.machine:Vm.activate",
    "repro.vm.verify.analyzer:verify_binary",
    "repro.vm.verify.analyzer:verify_container",
    "repro.core.pirte:Pirte.install",
    "repro.core.pirte:Pirte.plugin_write",
    "repro.core.pirte:Pirte.deliver_to_port",
    "repro.core.pirte:Pirte.step",
    "repro.core.pirte:Pirte.timer_tick",
    "repro.core.ecm:EcmPirte.step",
    "repro.core.messages:decode",
    "repro.core.messages:InstallMessage.encode",
    "repro.core.messages:AckMessage.encode",
    "repro.core.messages:UninstallMessage.encode",
    "repro.core.messages:LifecycleMessage.encode",
    "repro.core.messages:DataMessage.encode",
    "repro.core.messages:DiagMessage.encode",
    "repro.network.channel:Channel.send",
    "repro.network.channel:Channel.send_many",
    "repro.api.builder:ScenarioBuilder.build",
    "repro.server.contextgen:generate_packages",
    "repro.server.services.deployments:DeploymentService.deploy",
    "repro.server.services.deployments:DeploymentService.deploy_batch",
    "repro.server.services.vehicles:VehicleService.query",
    "repro.server.pusher:Pusher.push",
    "repro.server.pusher:Pusher.push_many",
    "repro.server.gateway.wire:encode",
    "repro.server.gateway.pump:CommandPump.pump",
    "repro.telemetry.bus:TelemetryBus.publish",
)

_layer_cache: dict[str, str] = {}


def layer_of(module: str) -> str:
    """The layer a module belongs to, or :data:`OTHER`."""
    layer = _layer_cache.get(module)
    if layer is None:
        layer = OTHER
        for prefix, candidate in _PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                layer = candidate
                break
        _layer_cache[module] = layer
    return layer


def _callable_module(fn) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:  # functools.partial and friends
        module = getattr(getattr(fn, "func", None), "__module__", None)
    return module or ""


class Recorder:
    """Span statistics, counters and latency samples of one process.

    Each thread keeps its own span stack and per-layer totals, so the
    gateway's HTTP workers and its simulator thread never share a
    read-modify-write.  Counters are only bumped on the simulator
    thread; samples are appended (atomic under the interpreter lock).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict[str, list]] = []
        self.counters: dict[str, float] = {
            "network.bytes": 0, "gateway.queue_depth.max": 0,
        }
        self.samples: dict[str, list[float]] = {
            "gateway.pump_wait_ms": [],
            "gateway.handler_ms": [],
            "gateway.encode_ms": [],
        }

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})  # (child-time stack, layer -> [self_s, calls])
            self._local.state = state
            with self._lock:
                self._threads.append(state[1])
        return state

    def span(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span charged to ``layer``."""
        stack, totals = self._thread_state()
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += duration
            entry = totals.get(layer)
            if entry is None:
                entry = totals[layer] = [0.0, 0]
            entry[0] += duration - child
            entry[1] += 1

    def wrap_callback(self, callback):
        """``callback`` wrapped in a span of its module's layer."""
        if getattr(callback, "_bench_traced", False):
            return callback
        layer = layer_of(_callable_module(callback))
        span = self.span

        def traced(*args, **kwargs):
            return span(layer, callback, *args, **kwargs)

        traced._bench_traced = True
        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """``layer -> {self_s, calls, share}`` over every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            for totals in self._threads:
                for layer, (self_s, calls) in totals.items():
                    entry = merged.setdefault(layer, [0.0, 0])
                    entry[0] += self_s
                    entry[1] += calls
        total = sum(self_s for self_s, __ in merged.values()) or 1.0
        return {
            layer: {
                "self_s": merged.get(layer, [0.0, 0])[0],
                "calls": merged.get(layer, [0.0, 0])[1],
                "share": merged.get(layer, [0.0, 0])[0] / total,
            }
            for layer in (*LAYERS, OTHER)
        }


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module, so lazy packages cannot import a
    function after it was wrapped (and so keep the unwrapped one)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _replace_everywhere(original, replacement) -> None:
    """Swap a module-level function in every ``repro`` module holding it."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _direct(recorder: Recorder, original, layer: str, observe=None):
    span = recorder.span
    if observe is None:
        def traced(*args, **kwargs):
            return span(layer, original, *args, **kwargs)
    else:
        def traced(*args, **kwargs):
            result = span(layer, original, *args, **kwargs)
            observe(result, *args, **kwargs)
            return result
    return traced


def _observers(recorder: Recorder) -> dict:
    counters = recorder.counters

    def channel_send(result, channel, message, size=0):
        counters["network.bytes"] += size

    def pump(drained, *args, **kwargs):
        if drained > counters["gateway.queue_depth.max"]:
            counters["gateway.queue_depth.max"] = drained

    return {
        "Channel.send": channel_send,
        "CommandPump.pump": pump,
    }


def object_counters() -> dict[str, float]:
    """Counters read from every live VM, CAN controller, channel and PIRTE.

    Call after the run: the platform objects stay reachable from the
    fleet or system that built them until the workload returns.
    """
    from repro.can.controller import CanController
    from repro.core.pirte import Pirte
    from repro.network.channel import Channel
    from repro.vm.machine import Vm

    counters = {
        "vm.activations": 0, "vm.fuel": 0, "vm.traps": 0, "can.frames": 0,
        "network.messages": 0, "core.pirte.dropped": 0,
    }
    for obj in gc.get_objects():
        if not isinstance(obj, (Vm, CanController, Channel, Pirte)):
            continue
        if isinstance(obj, Vm):
            counters["vm.activations"] += obj.activations
            counters["vm.fuel"] += obj.total_fuel_used
            counters["vm.traps"] += obj.traps
        elif isinstance(obj, CanController):
            counters["can.frames"] += obj.tx_count
        elif isinstance(obj, Channel):
            counters["network.messages"] += obj.sent
        else:
            counters["core.pirte.dropped"] += obj.dropped_messages
    return counters


def install(recorder: Recorder) -> None:
    """Wrap the kernel, delivery hooks and :data:`DIRECT_CALLS`.

    Call once per process, before any platform is built.
    """
    _import_all_repro_modules()
    from repro.can.controller import CanController
    from repro.network.channel import Channel
    from repro.network.sockets import Endpoint
    from repro.server.gateway.pump import CommandPump
    from repro.sim.kernel import Simulator

    wrap = recorder.wrap_callback
    observers = _observers(recorder)
    counters = recorder.counters

    for entry in DIRECT_CALLS:
        module_name, qualname = entry.split(":")
        module = sys.modules[module_name]
        owner_name, __, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        traced = _direct(
            recorder, original, layer_of(module_name),
            observers.get(qualname),
        )
        if owner_name:
            setattr(owner, attr, traced)
        else:
            _replace_everywhere(original, traced)

    # Channel.send_many consumes its items once: count the bytes as the
    # channel takes each one.
    send_many = Channel.send_many

    def counted(items):
        for message, size in items:
            counters["network.bytes"] += size
            yield message, size

    def traced_send_many(self, items):
        return send_many(self, counted(items))

    Channel.send_many = traced_send_many

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    schedule_many = Simulator.schedule_many

    def traced_schedule(self, delay, callback, label=""):
        return schedule(self, delay, wrap(callback), label)

    def traced_schedule_at(self, time, callback, label=""):
        return schedule_at(self, time, wrap(callback), label)

    def traced_schedule_many(self, items, label=""):
        return schedule_many(
            self, [(delay, wrap(callback)) for delay, callback in items], label
        )

    Simulator.schedule = traced_schedule
    Simulator.schedule_at = traced_schedule_at
    Simulator.schedule_many = traced_schedule_many

    for cls in (Channel, Endpoint):
        on_receive = cls.on_receive

        def traced_on_receive(self, callback, _on_receive=on_receive):
            return _on_receive(self, wrap(callback))

        cls.on_receive = traced_on_receive

    subscribe = CanController.subscribe
    subscribe_all = CanController.subscribe_all
    CanController.subscribe = (
        lambda self, can_id, handler: subscribe(self, can_id, wrap(handler))
    )
    CanController.subscribe_all = (
        lambda self, handler: subscribe_all(self, wrap(handler))
    )

    # Gateway requests: the HTTP worker's submit call and the handler it
    # carries to the simulator thread share one correlation box, so
    # pump wait = submit time - handler time, per request.  The submit
    # call gets no span: the worker spends it blocked until the
    # simulator thread has run the handler, whose time the pump span
    # there already charges.
    submit = CommandPump.submit
    samples = recorder.samples

    def traced_submit(self, fn, timeout_s=30.0):
        box: list[float] = []

        def handler():
            start = perf_counter()
            try:
                return fn()
            finally:
                box.append(perf_counter() - start)

        start = perf_counter()
        try:
            return submit(self, handler, timeout_s)
        finally:
            total = perf_counter() - start
            if box:
                samples["gateway.handler_ms"].append(box[0] * 1000)
                samples["gateway.pump_wait_ms"].append((total - box[0]) * 1000)

    CommandPump.submit = traced_submit

    from repro.server.gateway import http as gateway_http

    encode = gateway_http.encode

    def timed_encode(response):
        start = perf_counter()
        try:
            return encode(response)
        finally:
            samples["gateway.encode_ms"].append((perf_counter() - start) * 1000)

    _replace_everywhere(encode, timed_encode)
