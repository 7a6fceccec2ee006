"""REST route table mounting the FleetAPI services.

Every handler receives ``(gateway, params, query, body)`` and returns
a :class:`~repro.server.services.envelope.Response`; the HTTP layer
serializes it through :mod:`~repro.server.gateway.wire`.  Handlers
marked ``pumped`` (the default) run on the *simulator* thread via the
command pump — they may touch FleetAPI, the database, and the engine
freely.  Unpumped handlers (the event stream) run on the HTTP worker
thread and must only touch thread-safe gateway state.

Route table (also in the README):

====== ================================ ===========================
Method Path                             Meaning
====== ================================ ===========================
GET    /v1/health                       liveness + registry counts
GET    /v1/vehicles                     all VehicleView rows
POST   /v1/vehicles/query               FleetSelector portal query
GET    /v1/vehicles/{vin}               one VehicleView
GET    /v1/vehicles/{vin}/health        latest DiagMessage per SW-C
POST   /v1/apps                         upload an app (verified)
GET    /v1/apps/{app}/verification      static-verification report
POST   /v1/deployments                  batch deploy an app
GET    /v1/deployments/{vin}/{app}      install status + ack tally
GET    /v1/campaigns                    campaign records
POST   /v1/campaigns                    stage (+start) a campaign
GET    /v1/campaigns/{id}               one record (incl. report)
GET    /v1/metrics                      registry + bus snapshots
GET    /v1/events                       long-poll event stream
====== ================================ ===========================
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.campaign.faults import FaultPlan
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.server.models import App
from repro.server.services.envelope import ErrorCode, Response
from repro.server.services.selector import FleetSelector


class Route:
    __slots__ = ("method", "segments", "handler", "name", "pumped")

    def __init__(
        self,
        method: str,
        path: str,
        handler: Callable[..., Response],
        pumped: bool = True,
    ) -> None:
        self.method = method
        self.segments = tuple(path.strip("/").split("/"))
        self.handler = handler
        #: Stable label for metrics: ``GET /v1/vehicles/{vin}``.
        self.name = f"{method} /{'/'.join(self.segments)}"
        self.pumped = pumped


class Router:
    """Literal-segment matcher with ``{param}`` captures."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(
        self,
        method: str,
        path: str,
        handler: Callable[..., Response],
        pumped: bool = True,
    ) -> None:
        self._routes.append(Route(method, path, handler, pumped))

    def match(
        self, method: str, path: str
    ) -> tuple[Optional[Route], dict[str, str]]:
        segments = tuple(segment for segment in path.split("/") if segment)
        for route in self._routes:
            if route.method != method:
                continue
            if len(route.segments) != len(segments):
                continue
            params: dict[str, str] = {}
            for pattern, value in zip(route.segments, segments):
                if pattern.startswith("{") and pattern.endswith("}"):
                    params[pattern[1:-1]] = value
                elif pattern != value:
                    break
            else:
                return route, params
        return None, {}

    @property
    def routes(self) -> list[Route]:
        return list(self._routes)


# -- handlers (pumped ones run on the simulator thread) ------------------------


def _health(gateway, params, query, body) -> Response:
    api = gateway.api
    return Response.success(
        {
            "version": api.version,
            "sim_time_us": gateway.platform.sim.now,
            "vehicles": len(api.db.vehicles),
            "apps": len(api.db.apps),
            "campaigns": len(api.db.campaigns),
        }
    )


def _vehicles(gateway, params, query, body) -> Response:
    return gateway.api.vehicles.query(None)


def _vehicles_query(gateway, params, query, body) -> Response:
    body = body or {}
    selector_dict = body.get("selector")
    selector = (
        None if selector_dict is None else FleetSelector.from_dict(selector_dict)
    )
    return gateway.api.vehicles.query(selector)


def _vehicle(gateway, params, query, body) -> Response:
    rows = gateway.api.vehicles.query(
        FleetSelector.vins([params["vin"]])
    ).unwrap()
    if not rows:
        return Response.failure(
            ErrorCode.UNKNOWN_ENTITY, f"no vehicle {params['vin']!r}"
        )
    return Response.success(rows[0])


def _vehicle_health(gateway, params, query, body) -> Response:
    return gateway.api.vehicles.health(params["vin"])


def _upload_app(gateway, params, query, body) -> Response:
    """Verified APP upload; binaries arrive base64-encoded.

    A rejection carries ``VERIFICATION_FAILED`` (HTTP 422) with the
    per-plug-in reports in the payload — the same envelope the
    in-process ``AppStore.upload`` returns.
    """
    body = body or {}
    payload = body.get("app") or {}
    if not isinstance(payload, dict):
        return Response.failure(
            ErrorCode.INVALID_REQUEST, "app payload must be a JSON object"
        )
    missing = [key for key in ("name", "version", "plugins")
               if not payload.get(key)]
    if missing:
        return Response.failure(
            ErrorCode.INVALID_REQUEST,
            f"app payload missing {', '.join(missing)}",
        )
    try:
        app = App.from_dict(payload)
    except ConfigurationError as exc:
        return Response.failure(ErrorCode.INVALID_REQUEST, str(exc))
    if body.get("version_upload"):
        return gateway.api.store.upload_version(app)
    return gateway.api.store.upload(app)


def _app_verification(gateway, params, query, body) -> Response:
    """Latest static-verification report recorded for one APP."""
    return gateway.api.store.verification(params["app"])


def _deploy(gateway, params, query, body) -> Response:
    body = body or {}
    app_name, vins = body["app"], body["vins"]
    if not isinstance(app_name, str) or not (
        isinstance(vins, list) and all(isinstance(vin, str) for vin in vins)
    ):
        return Response.failure(
            ErrorCode.INVALID_REQUEST,
            "deploy needs an app name and a list of VIN strings",
        )
    user_id = body.get("user_id") or gateway.platform.user_id
    results = gateway.api.deployments.deploy_batch(user_id, vins, app_name)
    ok = all(response.ok for response in results.values())
    return Response(
        ok=True,
        value={
            "app": app_name,
            "accepted": sum(1 for r in results.values() if r.ok),
            "rejected": sum(1 for r in results.values() if not r.ok),
            "all_accepted": ok,
            "results": {vin: results[vin] for vin in sorted(results)},
        },
        pushed_messages=sum(r.pushed_messages for r in results.values()),
    )


def _deployment_status(gateway, params, query, body) -> Response:
    deployments = gateway.api.deployments
    vin, app_name = params["vin"], params["app"]
    status = deployments.installation_status(vin, app_name)
    acked, failed, total = deployments.installation_progress(vin, app_name)
    if status is None and total == 0:
        return Response.failure(
            ErrorCode.NOT_INSTALLED, f"{app_name!r} is not deployed on {vin!r}"
        )
    return Response.success(
        {
            "vin": vin,
            "app": app_name,
            "status": status.value if status is not None else None,
            "acked": acked,
            "failed": failed,
            "total": total,
        }
    )


def _campaigns(gateway, params, query, body) -> Response:
    return gateway.api.campaigns.list(status=query.get("status"))


def _stage_campaign(gateway, params, query, body) -> Response:
    body = body or {}
    spec = CampaignSpec.from_dict(body["spec"])
    faults_dict = body.get("faults")
    faults = None if faults_dict is None else FaultPlan.from_dict(faults_dict)
    engine = gateway.platform.stage_campaign(spec, faults=faults)
    if body.get("start", True):
        engine.start()
    gateway.engines[engine.campaign_id] = engine
    record = gateway.api.campaigns.get(engine.campaign_id).unwrap()
    return Response.success(record)


def _campaign(gateway, params, query, body) -> Response:
    return gateway.api.campaigns.get(params["campaign_id"])


def _metrics(gateway, params, query, body) -> Response:
    """The same snapshots CI artifacts serialize, served live."""
    api = gateway.api
    return Response.success(
        {
            "metrics": api.metrics.snapshot(),
            "bus": api.telemetry.snapshot(),
            "stream": gateway.broker.stats(),
        }
    )


def _events(gateway, params, query, body) -> Response:
    """Long-poll the event stream; runs on the HTTP worker thread."""

    def _int(name: str, default: int) -> int:
        raw = query.get(name)
        return default if raw in (None, "") else int(raw)

    categories_raw = query.get("categories")
    categories = (
        None
        if not categories_raw
        else [c for c in categories_raw.split(",") if c]
    )
    client = gateway.broker.client(
        client_id=query.get("client") or None,
        categories=categories,
        capacity=_int("buffer", 0) or None,
    )
    batch = client.poll(
        after=_int("after", -1),
        max_events=_int("max", 100),
        timeout_s=min(float(query.get("timeout_s") or 0.0), 30.0),
    )
    return Response.success(batch)


def build_router() -> Router:
    router = Router()
    router.add("GET", "/v1/health", _health)
    router.add("GET", "/v1/vehicles", _vehicles)
    router.add("POST", "/v1/vehicles/query", _vehicles_query)
    router.add("GET", "/v1/vehicles/{vin}", _vehicle)
    router.add("GET", "/v1/vehicles/{vin}/health", _vehicle_health)
    router.add("POST", "/v1/apps", _upload_app)
    router.add("GET", "/v1/apps/{app}/verification", _app_verification)
    router.add("POST", "/v1/deployments", _deploy)
    router.add("GET", "/v1/deployments/{vin}/{app}", _deployment_status)
    router.add("GET", "/v1/campaigns", _campaigns)
    router.add("POST", "/v1/campaigns", _stage_campaign)
    router.add("GET", "/v1/campaigns/{campaign_id}", _campaign)
    router.add("GET", "/v1/metrics", _metrics)
    router.add("GET", "/v1/events", _events, pumped=False)
    return router


__all__ = ["Route", "Router", "build_router"]


def _route_table() -> list[str]:
    """Route names, for docs and the 404 body."""
    return [route.name for route in build_router().routes]


ROUTE_NAMES = _route_table()
