import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geodiv import Coordinate, GeoPath, geo_equal
from geodiv import geodesy
from geodiv.cluster import delta_vector
from geodiv.geodesy import PreparedPath, _prepare_point, great_circle_distance, path_length, point_to_path_distance
from oracles import (
    great_circle_distance_direct,
    great_circle_distance_haversine,
    point_to_path_distance_per_arc,
    prepared_distance,
    sampled_point_to_polyline,
)

KM_PER_DEG = math.pi * 6371.0 / 180.0

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
coordinates = st.builds(Coordinate, lat=lats, lon=lons)


def test_coordinate_validation():
    with pytest.raises(ValueError):
        Coordinate(lat=90.5, lon=0.0)
    with pytest.raises(ValueError):
        Coordinate(lat=float("nan"), lon=0.0)
    with pytest.raises(ValueError):
        Coordinate(lat=0.0, lon=float("inf"))


def test_lon_normalized_to_half_open_range():
    assert Coordinate(lat=0.0, lon=180.0).lon == -180.0
    assert Coordinate(lat=0.0, lon=-180.0).lon == -180.0
    assert Coordinate(lat=0.0, lon=190.0) == Coordinate(lat=0.0, lon=-170.0)
    assert Coordinate(lat=0.0, lon=540.0).lon == -180.0
    # In-range longitudes must come through bit-identical.
    assert Coordinate(lat=0.0, lon=19.05).lon == 19.05


def test_identical_points_distance_zero():
    assert great_circle_distance(Coordinate(0, 0), Coordinate(0, 0)) == 0.0


def _one_ulp(value: float) -> float:
    """The next float from ``value`` towards 0, or away from it at 0."""
    return math.nextafter(value, -math.copysign(math.inf, value))


@given(coordinates, st.sampled_from(["lat", "lon", "both"]))
def test_identical_coordinates_read_zero_and_one_ulp_apart_read_under_1e_10_km(a, moved):
    # Unit vectors cannot tell apart coordinates under ~1e-16 rad apart, so
    # these may read 0, but never more than a tenth of a micrometre.
    assert great_circle_distance(a, Coordinate(a.lat, a.lon)) == 0.0
    lat = _one_ulp(a.lat) if moved != "lon" else a.lat
    lon = _one_ulp(a.lon) if moved != "lat" else a.lon
    assert 0.0 <= great_circle_distance(a, Coordinate(lat, lon)) <= 1e-10


def test_antipodal_equatorial_points():
    d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 180))
    assert abs(d - math.pi * 6371.0) < 1e-3
    # Just short of the antipode, where an asin or acos loses half its digits.
    d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 180 - 1e-7))
    assert abs(d - (math.pi - math.radians(1e-7)) * 6371.0) <= 1e-9


def test_one_degree_of_longitude_at_equator():
    d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 1))
    assert abs(d - KM_PER_DEG) < 1e-3


def test_radius_is_configurable():
    d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 180), radius_km=1.0)
    assert abs(d - math.pi) < 1e-12


@given(coordinates, coordinates)
def test_distance_equals_direct_unit_vector_angle(a, b):
    assert great_circle_distance(a, b) == great_circle_distance_direct(a, b)
    assert great_circle_distance(a, b, 1.0) == great_circle_distance_direct(a, b, 1.0)


@given(coordinates, coordinates)
def test_distance_agrees_with_the_haversine_away_from_the_antipode(a, b):
    # Nearer the antipode the haversine's asin loses digits, not the kernel.
    d = great_circle_distance(a, b)
    if d < (math.pi - math.radians(1.0)) * 6371.0:
        assert abs(d - great_circle_distance_haversine(a, b)) <= 1e-9


@given(coordinates, coordinates)
def test_distance_symmetric_exactly(a, b):
    assert great_circle_distance(a, b) == great_circle_distance(b, a)


@given(coordinates, coordinates)
def test_distance_nonnegative_and_zero_iff_equal(a, b):
    d = great_circle_distance(a, b)
    assert d >= 0.0
    if a == b:
        assert d == 0.0


@given(coordinates, coordinates, coordinates)
@example(Coordinate(0, 180), Coordinate(0, 0.00390625), Coordinate(0, 1))
def test_triangle_inequality(a, b, c):
    ab = great_circle_distance(a, b)
    ac = great_circle_distance(a, c)
    cb = great_circle_distance(c, b)
    assert ab <= ac + cb + 1e-9


def test_point_at_segment_start():
    s = (Coordinate(10, 20), Coordinate(11, 21))
    assert point_to_path_distance(Coordinate(10, 20), s) == 0.0


def test_cross_track_from_equatorial_segment():
    s = (Coordinate(0, -10), Coordinate(0, 10))
    d = point_to_path_distance(Coordinate(1, 0), s)
    assert abs(d - 111.195) < 0.05


def test_clamped_to_nearer_endpoint():
    s = (Coordinate(0, 0), Coordinate(0, 10))
    d = point_to_path_distance(Coordinate(0, 20), s)
    assert abs(d - 1111.95) < 0.05


def test_zero_length_segment_is_point_distance():
    s = (Coordinate(5, 5), Coordinate(5, 5))
    p = Coordinate(6, 5)
    assert point_to_path_distance(p, s) == great_circle_distance(p, Coordinate(5, 5))


def test_node_on_path_gives_zero():
    nodes = [Coordinate(0, 0), Coordinate(0, 10), Coordinate(5, 10)]
    assert point_to_path_distance(Coordinate(0, 10), nodes) == 0.0


def test_path_cross_track():
    d = point_to_path_distance(Coordinate(0.45, 5), [Coordinate(0, 0), Coordinate(0, 10)])
    assert abs(d - 50.04) < 0.1


def test_two_segment_path_matches_sampling_oracle():
    nodes = [Coordinate(0, 0), Coordinate(0, 10), Coordinate(5, 10)]
    p = Coordinate(0, 25)
    d = point_to_path_distance(p, nodes)
    oracle = sampled_point_to_polyline((0, 25), [(0, 0), (0, 10), (5, 10)])
    assert abs(d - oracle) < 0.5


def test_empty_path_raises():
    with pytest.raises(ValueError, match="^path has no nodes$"):
        point_to_path_distance(Coordinate(0, 0), [])


def test_single_node_path_is_point_distance():
    p = Coordinate(3, 4)
    n = Coordinate(1, 2)
    assert point_to_path_distance(p, [n]) == great_circle_distance(p, n)


@given(coordinates, st.lists(coordinates, min_size=1, max_size=5))
def test_path_distance_bounded_by_nearest_node(p, nodes):
    d = point_to_path_distance(p, nodes)
    nearest = min(great_circle_distance(p, n) for n in nodes)
    assert d <= nearest + 1e-9


def test_antipodal_segment_falls_back_to_endpoints():
    s = (Coordinate(0, 0), Coordinate(0, 180))
    p = Coordinate(45, 90)
    d = point_to_path_distance(p, s)
    expected = min(
        great_circle_distance(p, Coordinate(0, 0)), great_circle_distance(p, Coordinate(0, 180))
    )
    assert d == expected


def test_segment_oracle_on_random_short_segments():
    # The full 1000-segment sweep runs in the acceptance suite; this is a
    # quick regression version.
    rng = random.Random(99)
    for _ in range(120):
        lat = rng.uniform(-70, 70)
        lon = rng.uniform(-170, 170)
        dlat = rng.uniform(-4, 4)
        dlon = rng.uniform(-4, 4)
        a = (lat, lon)
        b = (min(89.0, max(-89.0, lat + dlat)), lon + dlon)
        if great_circle_distance(Coordinate(*a), Coordinate(*b)) >= 1000.0:
            continue
        p = (min(89.0, max(-89.0, lat + rng.uniform(-6, 6))), lon + rng.uniform(-6, 6))
        got = point_to_path_distance(Coordinate(*p), (Coordinate(*a), Coordinate(*b)))
        oracle = sampled_point_to_polyline(p, [a, b])
        assert abs(got - oracle) < 0.5


def test_path_length_sums_segments():
    nodes = [Coordinate(0, 0), Coordinate(0, 1), Coordinate(0, 2)]
    assert abs(path_length(nodes) - 2 * KM_PER_DEG) < 1e-9
    assert path_length([Coordinate(12, 34)]) == 0.0
    with pytest.raises(ValueError, match="^path has no nodes$"):
        path_length([])


def _edge_paths(rng: random.Random) -> list[tuple[Coordinate, list[Coordinate]]]:
    """Random (point, path) cases near the antimeridian and the poles, with
    the point at the pole of an arc's great circle, near-antipodal arcs,
    repeated nodes and the point on a node."""
    cases = []
    for _ in range(300):
        kind = rng.choice(["antimeridian", "polar", "circle-pole", "antipodal", "repeated", "on-node", "any"])
        n = rng.randint(1, 6)
        if kind == "circle-pole":
            # Arcs along the equator, the point at one of its poles.
            nodes = [Coordinate(0.0, rng.uniform(-180, 180)) for _ in range(n)]
            p = Coordinate(rng.choice([90.0, -90.0]), rng.uniform(-180, 180))
        elif kind == "antimeridian":
            nodes = [Coordinate(rng.uniform(-60, 60), rng.choice([-1, 1]) * rng.uniform(175, 180)) for _ in range(n)]
            p = Coordinate(rng.uniform(-60, 60), rng.choice([179.9999999, -180.0, rng.uniform(-180, 180)]))
        elif kind == "polar":
            nodes = [Coordinate(rng.choice([-1, 1]) * rng.uniform(85, 90), rng.uniform(-180, 180)) for _ in range(n)]
            p = Coordinate(rng.choice([90.0, -90.0, rng.uniform(80, 90)]), rng.uniform(-180, 180))
        elif kind == "antipodal":
            a = Coordinate(rng.uniform(-80, 80), rng.uniform(-180, 180))
            eps = rng.choice([0.0, 1e-9, 1e-6, 1e-3])
            b = Coordinate(-a.lat + eps, a.lon + 180.0 - eps)
            nodes = [a, b] if rng.random() < 0.5 else [a, b, a]
            p = Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))
        else:
            nodes = [Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(n)]
            if kind == "repeated":
                i = rng.randrange(len(nodes))
                nodes.insert(i, nodes[i])
            p = rng.choice(nodes) if kind == "on-node" else Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))
        cases.append((p, nodes))
    return cases


def test_path_distance_equals_per_arc_oracle_on_edge_cases():
    for p, nodes in _edge_paths(random.Random(2016)):
        for radius in (6371.0, 1.0):
            assert point_to_path_distance(p, nodes, radius) == point_to_path_distance_per_arc(p, nodes, radius)


def _geo_path(nodes: list[Coordinate]) -> GeoPath | None:
    kept = [c for k, c in enumerate(nodes) if k == 0 or c.key != nodes[k - 1].key]
    return GeoPath(nodes=tuple(kept)) if len(kept) >= 2 else None


@given(
    coordinates,
    st.lists(coordinates, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    st.floats(min_value=1e-3, max_value=25000.0),
)
def test_path_distance_equals_per_arc_oracle(p, nodes, shared, threshold):
    assert point_to_path_distance(p, nodes) == point_to_path_distance_per_arc(p, nodes)
    # Two geo-paths that share nodes: the shared ones are 0 away from the
    # other path without an arc scan, and must still match the oracle.
    first = _geo_path([*nodes, p])
    second = _geo_path([p, *(nodes[k % len(nodes)] for k in shared)])
    if first is None or second is None:
        return
    want = [point_to_path_distance_per_arc(u, second.nodes) for u in first.nodes]
    want += [point_to_path_distance_per_arc(u, first.nodes) for u in second.nodes]
    assert list(delta_vector(first, second)) == want
    assert geo_equal(first, second, threshold) == (max(want) <= threshold)


def test_a_node_of_the_path_is_zero_away_without_an_arc_scan(monkeypatch):
    nodes = [Coordinate(10.0, 20.0), Coordinate(-0.0, 30.0), Coordinate(5.0, 180.0), Coordinate(-20.0, 40.0)]
    path = PreparedPath(nodes)

    def no_arc(*args):
        raise AssertionError("an arc was scanned")

    monkeypatch.setattr(geodesy, "_cross_track", no_arc)
    monkeypatch.setattr(geodesy, "_angle", no_arc)
    # First, middle (queried at +0.0 for a -0.0 node), the node given at
    # longitude 180 (stored at -180) queried either way, and last.
    # A node is covered at any threshold: by its own chord, or, past the
    # bounds' reach (1e5 km), as a node.
    for lat, lon in [(10.0, 20.0), (0.0, 30.0), (5.0, -180.0), (5.0, 180.0), (-20.0, 40.0)]:
        point = _prepare_point(Coordinate(lat, lon))
        d = path.distance(point, 6371.0)
        assert d == 0.0 and math.copysign(1.0, d) == 1.0, (lat, lon)
        for threshold_km in (1e-3, 50.0, 1e5):
            assert path.covers([point], threshold_km, 6371.0), (lat, lon, threshold_km)


@given(coordinates, st.lists(coordinates, min_size=1, max_size=6), st.floats(min_value=0.0, max_value=25000.0))
def test_prepared_distance_stops_only_within_the_limit(p, nodes, limit):
    # The early exit of the geo_equal oracle's scan, and covers, which
    # replaced it, on the same inputs.
    full = point_to_path_distance(p, nodes)
    path = PreparedPath(nodes)
    assert path.covers([_prepare_point(p)], limit, 6371.0) == (full <= limit)
    stopped = prepared_distance(path, _prepare_point(p), 6371.0, limit)
    assert (stopped <= limit) == (full <= limit)
    assert stopped >= full
    if stopped > limit:
        assert stopped == full
