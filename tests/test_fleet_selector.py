"""FleetSelector property tests: boolean algebra laws, serialization.

Hypothesis generates random fleets (models, regions, connectivity,
installation records) and random selector trees, then pins the algebra:
``&``/``|``/``~`` compose exactly like Python's ``and``/``or``/``not``,
De Morgan and double negation hold, ``all()``/``none()`` are the
identity and annihilator, and every selector tree survives a
``to_dict``/``from_dict`` round trip both structurally and
semantically.  Empty-fleet edge cases run against a real server's
query endpoint, and the endpoint's narrowed registry read (only the
VINs a selector can match) is checked against a full scan, on random
fleets and on the portal's queries over a 500-vehicle synthetic fleet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.sockets import NetworkFabric
from repro.server.models import (
    HwConf,
    InstallStatus,
    InstalledApp,
    SystemSwConf,
    Vehicle,
    VehicleConf,
)
from repro.server.server import TrustedServer
from repro.server.services import FleetSelector as S
from repro.server.services.vehicles import VehicleView
from repro.sim import Simulator
from tests.test_server_ops import synthetic_server

import pytest

MODELS = ("model-a", "model-b", "model-c")
REGIONS = ("", "eu-north", "na-east")
APPS = ("app-1", "app-2")
VERSIONS = ("1.0", "2.0")
VINS = tuple(f"VIN-{i:04d}" for i in range(8))


def make_vehicle(vin, model, region, online, installed):
    vehicle = Vehicle(
        vin,
        model,
        VehicleConf(HwConf(model, ()), SystemSwConf(())),
        region=region,
        online=online,
    )
    for app, version, status in installed:
        vehicle.conf.installed[app] = InstalledApp(app, version, status)
    return vehicle


vehicles = st.builds(
    make_vehicle,
    vin=st.sampled_from(VINS),
    model=st.sampled_from(MODELS),
    region=st.sampled_from(REGIONS),
    online=st.booleans(),
    installed=st.lists(
        st.tuples(
            st.sampled_from(APPS),
            st.sampled_from(VERSIONS),
            st.sampled_from(list(InstallStatus)),
        ),
        max_size=2,
        unique_by=lambda row: row[0],
    ),
)

leaves = st.one_of(
    st.just(S.all()),
    st.just(S.none()),
    st.just(S.online()),
    st.just(S.healthy()),
    st.builds(S.model, st.sampled_from(MODELS)),
    st.builds(S.region, st.sampled_from(REGIONS)),
    st.builds(
        S.vins,
        st.frozensets(st.sampled_from(VINS), max_size=4),
    ),
    st.builds(
        S.installed,
        st.sampled_from(APPS),
        st.sampled_from((None,) + VERSIONS),
    ),
    st.builds(
        S.app_status,
        st.sampled_from(APPS),
        st.sampled_from(list(InstallStatus)),
    ),
)

selectors = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(lambda a, b: a & b, children, children),
        st.builds(lambda a, b: a | b, children, children),
        st.builds(lambda a: ~a, children),
    ),
    max_leaves=8,
)


class TestAlgebraLaws:
    @given(a=selectors, b=selectors, v=vehicles)
    @settings(max_examples=200, deadline=None)
    def test_connectives_match_python_booleans(self, a, b, v):
        assert (a & b).matches(v) == (a.matches(v) and b.matches(v))
        assert (a | b).matches(v) == (a.matches(v) or b.matches(v))
        assert (~a).matches(v) == (not a.matches(v))

    @given(a=selectors, b=selectors, v=vehicles)
    @settings(max_examples=150, deadline=None)
    def test_de_morgan(self, a, b, v):
        assert (~(a & b)).matches(v) == ((~a) | (~b)).matches(v)
        assert (~(a | b)).matches(v) == ((~a) & (~b)).matches(v)

    @given(a=selectors, v=vehicles)
    @settings(max_examples=150, deadline=None)
    def test_identity_annihilator_involution(self, a, v):
        assert (a & S.all()).matches(v) == a.matches(v)
        assert (a | S.none()).matches(v) == a.matches(v)
        assert not (a & S.none()).matches(v)
        assert (a | S.all()).matches(v)
        assert (~~a).matches(v) == a.matches(v)

    @given(a=selectors, b=selectors, v=vehicles)
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, a, b, v):
        assert (a & b).matches(v) == (b & a).matches(v)
        assert (a | b).matches(v) == (b | a).matches(v)


class TestSerialization:
    @given(a=selectors)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_structural_identity(self, a):
        assert S.from_dict(a.to_dict()) == a

    @given(a=selectors, v=vehicles)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_semantics(self, a, v):
        assert S.from_dict(a.to_dict()).matches(v) == a.matches(v)

    def test_malformed_dicts_rejected(self):
        with pytest.raises(ConfigurationError):
            S.from_dict({"op": "teleport"})
        with pytest.raises(ConfigurationError):
            S.from_dict({"model": "x"})
        with pytest.raises(ConfigurationError):
            S.from_dict(None)
        # Known op, broken operands: still ConfigurationError, never a
        # raw KeyError/ValueError leaking from the registry.
        with pytest.raises(ConfigurationError):
            S.from_dict({"op": "model"})
        with pytest.raises(ConfigurationError):
            S.from_dict({"op": "app_status", "app": "x", "status": "bogus"})
        with pytest.raises(ConfigurationError):
            S.from_dict({"op": "and", "left": {"op": "all"}})

    def test_algebra_rejects_non_selectors(self):
        with pytest.raises(ConfigurationError):
            S.all() & (lambda v: True)  # type: ignore[operator]


class TestEmptyFleetQueries:
    @pytest.fixture(scope="class")
    def empty_server(self):
        return TrustedServer(NetworkFabric(Simulator()))

    @given(a=selectors)
    @settings(max_examples=60, deadline=None)
    def test_query_on_empty_fleet_is_empty(self, a):
        server = TrustedServer(NetworkFabric(Simulator()))
        assert server.api.vehicles.query(a).unwrap() == []

    def test_query_without_selector_is_whole_fleet(self, empty_server):
        assert empty_server.api.vehicles.query().unwrap() == []

    def test_query_rejects_plain_callables(self, empty_server):
        from repro.server.services import ErrorCode

        response = empty_server.api.vehicles.query(lambda v: True)
        assert not response.ok
        assert response.code is ErrorCode.INVALID_REQUEST


def full_scan(service, selector):
    """The rows ``query`` returned before it narrowed: every registered
    vehicle, in VIN order, resolved and matched."""
    rows = []
    for vin in sorted(service.db.vehicles):
        vehicle = service.resolve(vin)
        if not selector.matches(vehicle):
            continue
        apps = tuple(
            (record.app_name, record.version, record.status.value)
            for record in vehicle.conf.installed.values()
        )
        rows.append(
            VehicleView(
                vin=vehicle.vin,
                model=vehicle.model,
                region=vehicle.region,
                owner=vehicle.owner or "",
                online=vehicle.online,
                apps=apps,
            )
        )
    return rows


#: VIN sets that may name vehicles the fleet never registered.
vin_sets = st.frozensets(st.sampled_from(VINS + ("VIN-9999",)), max_size=5)


class TestNarrowedQueries:
    @given(
        fleet=st.lists(vehicles, max_size=6, unique_by=lambda v: v.vin),
        a=selectors,
        vins=vin_sets,
        more_vins=vin_sets,
    )
    @settings(max_examples=200, deadline=None)
    def test_narrowed_query_returns_the_full_scan_rows(
        self, fleet, a, vins, more_vins
    ):
        server = TrustedServer(NetworkFabric(Simulator()))
        server.api.db.add_vehicles(fleet)
        service = server.api.vehicles
        for selector in (
            a,
            S.vins(vins),
            a & S.vins(vins),
            S.vins(vins) & ~a,
            S.vins(vins) & (a & S.vins(more_vins)),
            S.vins(vins) | a,
        ):
            before = service.queries
            assert service.query(selector).unwrap() == full_scan(
                service, selector
            )
            assert service.queries == before + 1

    def test_portal_queries_over_500_synthetic_vehicles(self):
        service = synthetic_server(500).api.vehicles
        eu = S.region("eu-north")
        for selector in (
            S.all(),
            eu,
            eu & S.model("model-0"),
            (eu | S.region("na-east")) & ~S.installed("app0") & S.healthy(),
        ):
            rows = service.query(selector).unwrap()
            assert rows and rows == full_scan(service, selector)
        assert len(service.query(S.all()).unwrap()) == 500
