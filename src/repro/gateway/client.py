"""FleetClient: typed urllib client of the gateway REST surface.

Speaks the wire protocol of :mod:`repro.server.gateway.wire`: every
body is a ``Response`` envelope in JSON.  Failed envelopes raise
:class:`~repro.server.services.envelope.ApiError` carrying the
structured :class:`ErrorCode` — exactly what ``Response.unwrap()``
raises in process, so in-process and over-the-wire call sites handle
errors identically.

The client is stdlib-only and deliberately synchronous; the gateway's
long-poll event endpoint gives it live streaming without websockets:

    client = FleetClient(gateway.base_url)
    for event in client.stream_events(categories=("campaign",)):
        print(event["seq"], event["name"], event["vin"])
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Iterable, Iterator, Optional

from repro.server.services.envelope import Response


class FleetClient:
    """One gateway endpoint, wrapped in typed methods.

    ``timeout_s`` is the socket timeout for plain requests; event
    polls get the poll timeout plus headroom.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: Stream-client id assigned by the first event poll.
        self.stream_client_id: Optional[str] = None

    # -- transport -------------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        query: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> Response:
        """One HTTP round-trip; returns the parsed envelope.

        Transport-level failures (connection refused, timeouts) raise
        :class:`urllib.error.URLError`; HTTP error statuses still
        carry an envelope body and are returned, not raised — use
        :meth:`call` / ``.unwrap()`` for raising semantics.
        """
        url = self.base_url + path
        if query:
            filtered = {
                key: value for key, value in query.items() if value is not None
            }
            if filtered:
                url += "?" + urllib.parse.urlencode(filtered)
        data = (
            None
            if body is None
            else json.dumps(body).encode("utf-8")
        )
        req = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        timeout = self.timeout_s if timeout_s is None else timeout_s
        try:
            with urllib.request.urlopen(req, timeout=timeout) as raw:
                payload = raw.read()
        except urllib.error.HTTPError as error:
            # Error statuses are still wire envelopes.
            payload = error.read()
        return Response.from_dict(json.loads(payload.decode("utf-8")))

    def call(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        query: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """Like :meth:`request` but unwraps: payload or ApiError."""
        return self.request(method, path, body, query, timeout_s).unwrap()

    # -- fleet reads -----------------------------------------------------------

    def health(self) -> dict:
        return self.call("GET", "/v1/health")

    def vehicles(self) -> list[dict]:
        """All registered vehicles as VehicleView rows."""
        return self.call("GET", "/v1/vehicles")

    def vehicle(self, vin: str) -> dict:
        return self.call("GET", f"/v1/vehicles/{vin}")

    def vehicle_health(self, vin: str) -> dict:
        """Latest DiagMessage per plug-in SW-C of one vehicle."""
        return self.call("GET", f"/v1/vehicles/{vin}/health")

    def query(self, selector=None) -> list[dict]:
        """Portal query; ``selector`` is a FleetSelector or its dict."""
        selector_dict = (
            selector.to_dict()
            if hasattr(selector, "to_dict")
            else selector
        )
        return self.call(
            "POST", "/v1/vehicles/query", body={"selector": selector_dict}
        )

    def metrics(self) -> dict:
        """Live metrics + bus + stream snapshots (CI artifact shape)."""
        return self.call("GET", "/v1/metrics")

    # -- app store -------------------------------------------------------------

    def upload_app(self, app, version_upload: bool = False) -> dict:
        """Upload an APP through the verified store gate.

        ``app`` may be the :class:`~repro.server.models.App` dataclass
        or its dict form (binaries base64-encoded).  Raises
        :class:`~repro.server.services.envelope.ApiError` with code
        ``VERIFICATION_FAILED`` when any plug-in binary carries
        error-tier findings — identical to the in-process gate.
        """
        app_dict = app.to_dict() if hasattr(app, "to_dict") else app
        return self.call(
            "POST",
            "/v1/apps",
            body={"app": app_dict, "version_upload": version_upload},
        )

    def verification(self, app: str) -> dict:
        """Latest static-verification report recorded for ``app``."""
        return self.call("GET", f"/v1/apps/{app}/verification")

    # -- deployments -----------------------------------------------------------

    def deploy(
        self,
        app: str,
        vins: Iterable[str],
        user_id: Optional[str] = None,
    ) -> dict:
        return self.call(
            "POST",
            "/v1/deployments",
            body={"app": app, "vins": list(vins), "user_id": user_id},
        )

    def deployment_status(self, vin: str, app: str) -> dict:
        return self.call("GET", f"/v1/deployments/{vin}/{app}")

    # -- campaigns -------------------------------------------------------------

    def stage_campaign(
        self, spec, faults=None, start: bool = True
    ) -> dict:
        """Stage (and by default start) a campaign; returns its record.

        ``spec``/``faults`` may be the dataclasses or their dict forms.
        """
        spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else spec
        faults_dict = (
            faults.to_dict() if hasattr(faults, "to_dict") else faults
        )
        return self.call(
            "POST",
            "/v1/campaigns",
            body={"spec": spec_dict, "faults": faults_dict, "start": start},
        )

    def campaign(self, campaign_id: str) -> dict:
        return self.call("GET", f"/v1/campaigns/{campaign_id}")

    def campaigns(self, status: Optional[str] = None) -> list[dict]:
        return self.call("GET", "/v1/campaigns", query={"status": status})

    # -- event stream ----------------------------------------------------------

    def poll_events(
        self,
        after: int = -1,
        categories: Optional[Iterable[str]] = None,
        max_events: int = 100,
        timeout_s: float = 5.0,
        buffer: Optional[int] = None,
    ) -> dict:
        """One long-poll against ``GET /v1/events``.

        Returns the batch dict (``events``, ``next_after``, exact
        ``enqueued``/``delivered``/``dropped`` accounting).  The
        server-assigned stream-client id is remembered so subsequent
        polls hit the same buffer.
        """
        batch = self.call(
            "GET",
            "/v1/events",
            query={
                "after": after,
                "client": self.stream_client_id,
                "categories": (
                    ",".join(categories) if categories else None
                ),
                "max": max_events,
                "timeout_s": timeout_s,
                "buffer": buffer,
            },
            timeout_s=timeout_s + self.timeout_s,
        )
        self.stream_client_id = batch["client"]
        return batch

    def stream_events(
        self,
        after: int = -1,
        categories: Optional[Iterable[str]] = None,
        poll_timeout_s: float = 2.0,
        idle_polls: Optional[int] = None,
    ) -> Iterator[dict]:
        """Iterate the live event stream, oldest first.

        Yields sequenced event dicts (``seq``, ``time_us``,
        ``category``, ``name``, ``vin``, ``data``) indefinitely; with
        ``idle_polls`` set, stops after that many consecutive empty
        polls (how the examples terminate).
        """
        empty = 0
        while True:
            batch = self.poll_events(
                after=after,
                categories=categories,
                timeout_s=poll_timeout_s,
            )
            events = batch["events"]
            empty = 0 if events else empty + 1
            for event in events:
                yield event
            after = batch["next_after"]
            if idle_polls is not None and empty >= idle_polls:
                return


__all__ = ["FleetClient"]
