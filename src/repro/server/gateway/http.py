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

Driver contract: the driver advances the simulator one pump interval
per slice.  Between slices it checks, without blocking, whether a
pumped request is in flight: its body read, its response not yet
written.  If so and no command is queued, it releases the interpreter
to the HTTP threads: it blocks until a command is submitted or such a
response is written, at most :data:`YIELD_TIMEOUT_S`.  Otherwise it
releases the interpreter for :data:`RELEASE_S` after each
:data:`HOLD_LIMIT_S` it runs, so threads it cannot see (a worker
accepting a connection or reading a request, a client in the same
process) do not wait for CPython's 5 ms switch interval.  An open
connection, idle or sending a slow body, and the ``/v1/events``
long-poll, which parks for seconds, never hold it back.

Determinism contract: with ``drive=False`` the gateway never advances
the simulator — pump ticks ride along as ordinary kernel events and
are no-ops while no traffic arrives, so a seeded scenario with a
gateway attached replays byte-identically against the same scenario
without one (pinned in ``tests/test_gateway.py``).
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.server.gateway.pump import (
    DEFAULT_INTERVAL_US,
    CommandPump,
    GatewayTimeout,
)
from repro.server.gateway.routes import ROUTE_NAMES, build_router
from repro.server.gateway.stream import StreamBroker
from repro.server.gateway.wire import STATUS_GATEWAY_BUSY, encode
from repro.server.services.envelope import ApiError, ErrorCode, Response

#: Longest the driver blocks while a pumped request is in flight: a
#: guard against a missed wakeup, not a pacing knob.
YIELD_TIMEOUT_S = 0.002

#: While no pumped request is in flight, the driver releases the
#: interpreter for RELEASE_S after each HOLD_LIMIT_S of running.  HTTP
#: threads otherwise wait for CPython's 5 ms switch interval, and far
#: longer when other processes contend for the CPU.
HOLD_LIMIT_S = 0.001
RELEASE_S = 0.0001

#: Largest request body the gateway reads (1 MiB).
MAX_BODY_BYTES = 1 << 20

#: How long the input after a refused, unframeable request is read and
#: dropped before the connection closes.
LINGER_S = 1.0

#: Tracebacks of unhandled errors go here, never into a response body.
_log = logging.getLogger(__name__)


class _UnframedBody(ValueError):
    """A request body whose end cannot be found: the connection closes."""


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

    def _read_body(self) -> bytes:
        """Consume the request body, whatever the route.

        Reading it before routing keeps a kept-alive connection framed
        at the next request.  A ``Transfer-Encoding`` body, or a length
        that is not an integer in ``0..MAX_BODY_BYTES``, cannot be
        skipped safely, so it raises :class:`_UnframedBody` and the
        connection closes after the response.
        """
        if self.headers.get("Transfer-Encoding") is not None:
            self.close_connection = True
            raise _UnframedBody(
                "Transfer-Encoding is not supported; send the body with "
                "a Content-Length"
            )
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()) or (
            int(header) > MAX_BODY_BYTES
        ):
            self.close_connection = True
            raise _UnframedBody(
                f"Content-Length must be an integer in 0..{MAX_BODY_BYTES} "
                f"(got {header!r})"
            )
        return self.rfile.read(int(header))

    def _discard_input(self) -> None:
        """Drop what the client still sends after an unframeable request.

        Its body may still be in flight, and closing a socket with
        unread input resets the connection, which can destroy the 400
        before the client reads it.  So the response ends with a
        half-close, and input is dropped until the client closes or
        :data:`LINGER_S` passes.
        """
        sock = self.connection
        deadline = time.monotonic() + LINGER_S
        try:
            sock.shutdown(socket.SHUT_WR)
            while (remaining := deadline - time.monotonic()) > 0:
                sock.settimeout(remaining)
                if not sock.recv(1 << 16):
                    break
        except OSError:  # reset or timed out: the connection is done
            pass

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        route, params = gateway.router.match(method, split.path)
        status: Optional[int] = None
        unframed = False
        held = False
        try:
            raw = self._read_body()
            if route is None:
                response = Response.failure(
                    ErrorCode.UNKNOWN_ENTITY,
                    f"no route {method} {split.path}",
                    value={"routes": ROUTE_NAMES},
                )
            else:
                body = _parse_body(raw)
                if route.pumped:
                    # Until its response is written the request holds
                    # the driver back (see the module docstring).
                    gateway._hold_driver()
                    held = True
                    response = gateway.commands.submit(
                        lambda: _run_handler(
                            route.handler, gateway, params, query, body
                        )
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
            unframed = isinstance(error, _UnframedBody)
        except Exception:  # noqa: BLE001 - last-resort 500, traceback logged
            _log.exception(
                "unhandled gateway error in %s %s", method, split.path
            )
            response = Response.failure(
                ErrorCode.INVALID_STATE, "unhandled gateway error"
            )
            status = 500
        try:
            wire_status, payload = encode(response)
            if status is None:
                status = wire_status
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
        finally:
            if held:
                gateway._release_driver()
        gateway.count_request(route.name if route else "<no-route>", status)
        if unframed:
            self._discard_input()


def _parse_body(raw: bytes) -> Optional[dict]:
    """A request body as a JSON object, or None when empty."""
    if not raw:
        return None
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


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
        self, platform, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.platform = platform
        self.host = host
        self.port = port
        self.router = build_router()
        metrics = self.api.metrics
        self.commands = CommandPump(platform.sim, metrics=metrics)
        self.broker = StreamBroker(self.api.telemetry, metrics=metrics)
        #: Engines staged over HTTP, by campaign id (sim-thread state).
        self.engines: dict = {}
        self._httpd: Optional[_GatewayHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._driver: Optional[threading.Thread] = None
        self._running = False
        #: Pumped requests in flight, which the driver yields to.
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

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
        self.commands.notify()
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
        """Driver loop: advance sim time one pump interval per slice.

        The simulator is only ever touched from this thread while it
        runs; HTTP workers reach it exclusively through the pump.
        Between slices it yields to pumped requests in flight, and
        briefly to every other thread (see the module docstring).
        """
        sim = self.platform.sim
        released = time.perf_counter()
        while self._running:
            sim.run_for(DEFAULT_INTERVAL_US)
            # Read without the lock: a response written after this read
            # leaves a notification, so the wait returns at once.
            if self._in_flight:
                self.commands.wait_for_command(YIELD_TIMEOUT_S)
            elif time.perf_counter() - released >= HOLD_LIMIT_S:
                self.commands.wait_for_command(RELEASE_S)
            else:
                continue
            released = time.perf_counter()

    def _hold_driver(self) -> None:
        with self._in_flight_lock:
            self._in_flight += 1

    def _release_driver(self) -> None:
        with self._in_flight_lock:
            self._in_flight -= 1
        self.commands.notify()

    # -- metrics ---------------------------------------------------------------

    def count_request(self, route_name: str, status: int) -> None:
        metrics = self.api.metrics
        metrics.inc("gateway.requests")
        metrics.inc(f"gateway.requests.{route_name}.{status}")

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"<FleetGateway {state} engines={len(self.engines)}>"


__all__ = ["MAX_BODY_BYTES", "FleetGateway"]
