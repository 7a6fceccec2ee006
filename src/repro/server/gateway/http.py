"""Threaded stdlib HTTP/1.1 server + the :class:`FleetGateway` façade.

``FleetGateway`` glues the pieces together around one built
:class:`~repro.api.platform.Platform`:

* an :class:`http.server.ThreadingHTTPServer` accepting connections on
  a daemon thread per client,
* the :class:`~repro.server.gateway.pump.CommandPump` marshalling
  request handlers onto the simulator thread,
* the :class:`~repro.server.gateway.stream.StreamBroker` tapping the
  control plane's telemetry bus for ``GET /v1/events``,
* optionally a *driver* thread that advances simulated time so the
  scenario is fully remote-drivable (``start(drive=True)``).

Determinism contract: with ``drive=False`` the gateway never advances
the simulator — pump ticks ride along as ordinary kernel events and
are no-ops while no traffic arrives, so a seeded scenario with a
gateway attached replays byte-identically against the same scenario
without one (pinned in ``tests/test_gateway.py``).
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.server.gateway.pump import CommandPump, GatewayTimeout
from repro.server.gateway.routes import ROUTE_NAMES, build_router
from repro.server.gateway.stream import StreamBroker
from repro.server.gateway.wire import STATUS_GATEWAY_BUSY, encode
from repro.server.services.envelope import ApiError, ErrorCode, Response
from repro.sim.kernel import MS

#: Sim time advanced per driver-loop iteration.
DEFAULT_SLICE_US = 20 * MS


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 stalls benchmark-scale client
    # herds (100+ simultaneous connects) at the accept queue.
    request_queue_size = 256
    #: Set by FleetGateway after construction.
    gateway: "FleetGateway"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway/1.0"
    # Headers and body leave in two writes: with Nagle's algorithm on, a
    # client reusing its connection waits a delayed ACK per response.
    disable_nagle_algorithm = True

    # Route all verbs through one dispatcher.
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging; metrics cover it."""

    def _read_body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        route, params = gateway.router.match(method, split.path)
        status: Optional[int] = None
        try:
            if route is None:
                response = Response.failure(
                    ErrorCode.UNKNOWN_ENTITY,
                    f"no route {method} {split.path}",
                    value={"routes": ROUTE_NAMES},
                )
            else:
                body = self._read_body()
                if route.pumped:
                    response = gateway.commands.submit(
                        lambda: _run_handler(
                            route.handler, gateway, params, query, body
                        ),
                        timeout_s=gateway.command_timeout_s,
                    )
                else:
                    response = _run_handler(
                        route.handler, gateway, params, query, body
                    )
        except GatewayTimeout as error:
            response = Response.failure(ErrorCode.INVALID_STATE, str(error))
            status = STATUS_GATEWAY_BUSY
        except (json.JSONDecodeError, ValueError) as error:
            response = Response.failure(ErrorCode.INVALID_REQUEST, str(error))
        except Exception:  # noqa: BLE001 - last-resort 500 with traceback
            response = Response.failure(
                ErrorCode.INVALID_STATE,
                "unhandled gateway error",
                value={"traceback": traceback.format_exc(limit=8)},
            )
            status = 500
        wire_status, payload = encode(response)
        if status is None:
            status = wire_status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        gateway.count_request(route.name if route else "<no-route>", status)


def _run_handler(handler, gateway, params, query, body) -> Response:
    """Invoke one route handler, normalizing failures to envelopes."""
    try:
        return handler(gateway, params, query, body)
    except ApiError as error:
        return Response.failure(error.code, *error.reasons)
    except (ConfigurationError, KeyError, TypeError, ValueError) as error:
        kind = type(error).__name__
        return Response.failure(
            ErrorCode.INVALID_REQUEST, f"{kind}: {error}"
        )


class FleetGateway:
    """One platform, served over HTTP.

    ``start(drive=True)`` makes the scenario fully remote-drivable: a
    driver thread advances simulated time continuously while HTTP
    workers feed commands in through the pump.  ``start(drive=False)``
    (or plain :meth:`attach`) leaves time control wherever it already
    lives — existing test/benchmark loops keep driving the simulator
    and the gateway rides along deterministically.
    """

    def __init__(
        self,
        platform,
        host: str = "127.0.0.1",
        port: int = 0,
        pump_interval_us: int = 5 * MS,
        slice_us: int = DEFAULT_SLICE_US,
        command_timeout_s: float = 30.0,
        stream_buffer: int = 256,
    ) -> None:
        self.platform = platform
        self.host = host
        self.port = port
        self.slice_us = slice_us
        self.command_timeout_s = command_timeout_s
        self.router = build_router()
        metrics = self.api.metrics
        self.commands = CommandPump(
            platform.sim, interval_us=pump_interval_us, metrics=metrics
        )
        self.broker = StreamBroker(
            self.api.telemetry, metrics=metrics,
            default_capacity=stream_buffer,
        )
        #: Engines staged over HTTP, by campaign id (sim-thread state).
        self.engines: dict = {}
        self._httpd: Optional[_GatewayHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._driver: Optional[threading.Thread] = None
        self._running = False

    @property
    def api(self):
        return self.platform.server.api

    @property
    def base_url(self) -> str:
        if self._httpd is None:
            raise ConfigurationError("gateway is not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # -- life cycle ------------------------------------------------------------

    def attach(self) -> None:
        """Hook into the simulator + bus without serving HTTP yet."""
        self.commands.attach()
        self.broker.attach()

    def detach(self) -> None:
        self.commands.detach()
        self.broker.detach()

    def pump(self) -> int:
        """Drain queued HTTP commands now (sim thread); returns count.

        This is what the ``schedule_many``-scheduled pump ticks call
        between simulation events; exposed for tests driving the
        simulator manually.
        """
        return self.commands.pump()

    def start(self, drive: bool = True) -> "FleetGateway":
        """Bind, attach, and serve; with ``drive`` also advance time.

        Binding ``port=0`` picks an ephemeral port — read
        :attr:`base_url` after starting.  Returns ``self`` so tests can
        write ``gateway = FleetGateway(platform).start()``.
        """
        if self._running:
            raise ConfigurationError("gateway already started")
        self._running = True
        self.attach()
        self._httpd = _GatewayHTTPServer((self.host, self.port), _Handler)
        self._httpd.gateway = self
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="gateway-http",
            daemon=True,
        )
        self._http_thread.start()
        if drive:
            self.platform.boot()
            self._driver = threading.Thread(
                target=self._drive, name="gateway-driver", daemon=True
            )
            self._driver.start()
        return self

    def stop(self) -> None:
        """Stop serving, stop driving, and detach from the simulator."""
        if not self._running:
            return
        self._running = False
        if self._driver is not None:
            self._driver.join(timeout=5.0)
            self._driver = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.detach()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _drive(self) -> None:
        """Driver loop: advance sim time in slices until stopped.

        The simulator is only ever touched from this thread while it
        runs; HTTP workers reach it exclusively through the pump.
        """
        sim = self.platform.sim
        while self._running:
            sim.run_for(self.slice_us)
            # Yield the GIL so HTTP worker threads get scheduled even
            # when the event queue is busy.
            threading.Event().wait(0.0005)

    # -- metrics ---------------------------------------------------------------

    def count_request(self, route_name: str, status: int) -> None:
        metrics = self.api.metrics
        metrics.inc("gateway.requests")
        metrics.inc(f"gateway.requests.{route_name}.{status}")

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"<FleetGateway {state} engines={len(self.engines)}>"


__all__ = ["DEFAULT_SLICE_US", "FleetGateway"]
