import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from geodiv import Coordinate, GeoPath, cluster_pair_routes, gdi, geo_equal, pair_diversity
from geodiv import cluster
from geodiv.cluster import delta_vector
from geodiv.geodesy import _prepare_point, great_circle_distance, path_length, point_to_path_distance

from oracles import _cross, _norm, _unit_vector, geo_equal_scan, point_to_path_distance_per_arc, prepared_distance

KM_PER_DEG = math.pi * 6371.0 / 180.0


def _path(*latlon: tuple[float, float]) -> GeoPath:
    return GeoPath(nodes=tuple(Coordinate(lat, lon) for lat, lon in latlon))


def _random_paths(rng: random.Random, n: int, spread_deg: float = 3.0) -> list[GeoPath]:
    paths = []
    for _ in range(n):
        length = rng.randint(2, 4)
        nodes = []
        while len(nodes) < length:
            c = Coordinate(rng.uniform(-spread_deg, spread_deg), rng.uniform(-spread_deg, spread_deg))
            if not nodes or c != nodes[-1]:
                nodes.append(c)
        paths.append(GeoPath(nodes=tuple(nodes)))
    return paths


def test_delta_of_identical_paths_is_zero_vector():
    p = _path((0, 0), (1, 1), (2, 2))
    dv = delta_vector(p, p)
    assert dv == (0.0,) * 6


def test_delta_length_is_sum_of_node_counts():
    p = _path((0, 0), (1, 0), (2, 0), (3, 0))
    l = _path((0, 1), (1, 1), (2, 1))
    assert len(delta_vector(p, l)) == 7


def test_delta_of_parallel_offset_paths():
    p = _path((0, 0), (0, 10))
    l = _path((0.45, 0), (0.45, 10))
    for value in delta_vector(p, l):
        assert abs(value - 50.04) < 0.1


def test_delta_is_symmetric_as_multiset():
    rng = random.Random(3)
    for _ in range(20):
        p, l = _random_paths(rng, 2)
        assert sorted(delta_vector(p, l)) == sorted(delta_vector(l, p))


def test_geo_equal_inclusive_at_threshold():
    p = _path((0, 0), (0, 10))
    l = _path((0.4, 0), (0.4, 10))
    worst = max(delta_vector(p, l))
    assert geo_equal(p, l, worst)
    assert not geo_equal(p, l, worst * (1 - 1e-9))


def test_geo_equal_rejects_beyond_threshold():
    # Offset ~50.6 km: just over the default 50 km rule.
    offset = 50.6 / KM_PER_DEG
    p = _path((0, 0), (0, 10))
    l = _path((offset, 0), (offset, 10))
    worst = max(delta_vector(p, l))
    assert worst > 50.0
    assert not geo_equal(p, l, 50.0)


def test_geo_equal_identical_paths_any_threshold():
    p = _path((10, 10), (11, 11))
    assert geo_equal(p, p, 1e-9)


def test_geo_equal_requires_positive_threshold():
    p = _path((0, 0), (1, 1))
    with pytest.raises(ValueError):
        geo_equal(p, p, 0.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0])
def test_geo_equal_refuses_a_threshold_that_is_not_positive_and_finite(threshold):
    p, q = _path((0, 0), (1, 1)), _path((0, 0), (1, 1.5))
    message = f"^threshold_km must be positive and finite, got {threshold}$"
    with pytest.raises(ValueError, match=message):
        geo_equal(p, q, threshold)
    with pytest.raises(ValueError, match=message):
        cluster_pair_routes([p, q], threshold)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -6371.0])
def test_a_radius_that_is_not_positive_and_finite_is_refused(radius):
    p, q = _path((0, 0), (1, 1)), _path((0, 0), (0.5, 1.2), (1, 1.5))
    message = f"^radius_km must be positive and finite, got {radius}$"
    for call in (
        lambda: geo_equal(p, q, 50.0, radius),
        lambda: cluster_pair_routes([p, q], 50.0, radius),
        lambda: delta_vector(p, q, radius),
        lambda: pair_diversity(p, q, radius),
        lambda: gdi([p, q], radius),
        lambda: gdi([p], radius),
        lambda: point_to_path_distance(Coordinate(2, 2), q.nodes, radius),
        lambda: great_circle_distance(Coordinate(0, 0), Coordinate(0, 1), radius),
        lambda: path_length(q.nodes, radius),
        lambda: path_length([Coordinate(2, 2)], radius),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_geo_equal_symmetric():
    rng = random.Random(11)
    for _ in range(30):
        p, l = _random_paths(rng, 2)
        for threshold in (25.0, 50.0, 200.0):
            assert geo_equal(p, l, threshold) == geo_equal(l, p, threshold)


def test_two_identical_paths_form_one_cluster():
    p = _path((0, 0), (1, 1))
    clusters = cluster_pair_routes([p, p], 50.0)
    assert len(clusters) == 1
    assert len(clusters[0].members) == 2


def test_route_merging_within_threshold():
    # A direct two-node path and a detour whose middle node sits ~30 km off
    # the straight line fall into the same cluster.
    direct = _path((0, 0), (0, 4.5))
    offset = 30.0 / KM_PER_DEG
    detour = _path((0, 0), (offset, 2.25), (0, 4.5))
    assert max(delta_vector(direct, detour)) < 50.0
    clusters = cluster_pair_routes([direct, detour], 50.0)
    assert len(clusters) == 1


def test_parallel_paths_far_apart_stay_separate():
    offset = 200.0 / KM_PER_DEG
    p = _path((0, 0), (0, 10))
    l = _path((offset, 0), (offset, 10))
    clusters = cluster_pair_routes([p, l], 50.0)
    assert len(clusters) == 2


def test_cluster_ids_follow_creation_order():
    offset = 200.0 / KM_PER_DEG
    paths = [_path((i * offset, 0), (i * offset, 10)) for i in range(3)]
    clusters = cluster_pair_routes(paths, 50.0)
    assert [c.id for c in clusters] == [0, 1, 2]


def test_representative_is_lexicographic_minimum():
    a = _path((0, 0), (0, 10))
    b = _path((0.1, 0), (0.1, 10))
    clusters = cluster_pair_routes([b, a], 50.0)
    assert len(clusters) == 1
    assert clusters[0].representative == a


def test_clustering_invariants_on_random_sets():
    rng = random.Random(23)
    thresholds = (25.0, 50.0, 100.0, 200.0)
    for _ in range(100):
        paths = _random_paths(rng, rng.randint(1, 7))
        counts = []
        for threshold in thresholds:
            clusters = cluster_pair_routes(paths, threshold)
            # Partition: every path in exactly one cluster.
            members = [p for c in clusters for p in c.members]
            assert sorted(members, key=GeoPath.sort_key) == sorted(paths, key=GeoPath.sort_key)
            assert 1 <= len(clusters) <= len(paths)
            # Complete linkage within each cluster.
            for cluster in clusters:
                for i, p in enumerate(cluster.members):
                    for l in cluster.members[i + 1 :]:
                        assert geo_equal(p, l, threshold)
            counts.append(len(clusters))
        assert counts == sorted(counts, reverse=True)


def test_delta_vector_matches_per_arc_oracle():
    rng = random.Random(3)
    paths = _random_paths(rng, 30, spread_deg=20.0)
    for p, l in zip(paths, paths[1:]):
        expected = [point_to_path_distance_per_arc(u, l.nodes) for u in p.nodes]
        expected += [point_to_path_distance_per_arc(u, p.nodes) for u in l.nodes]
        assert list(delta_vector(p, l)) == expected


def test_geo_equal_is_the_max_delta_test():
    rng = random.Random(5)
    paths = _random_paths(rng, 40, spread_deg=1.0) + _random_paths(rng, 10, spread_deg=6.0)
    for p in paths:
        for l in paths[:15]:
            values = delta_vector(p, l)
            # Every entry as a threshold puts some distance exactly on it.
            for threshold in (*[v for v in values if v > 0.0], 1.0, 50.0, 400.0):
                assert geo_equal(p, l, threshold) == (max(values) <= threshold)


def _normalized(v: tuple[float, float, float]) -> tuple[float, float, float]:
    n = _norm(v)
    return (v[0] / n, v[1] / n, v[2] / n)


def _heading(v, bearing: float) -> tuple[float, float, float]:
    """The unit tangent at ``v`` that is ``bearing`` radians from east."""
    east = _cross((0.0, 0.0, 1.0), v)
    east = _normalized(east if math.hypot(east[0], east[1]) > 1e-9 else (0.0, 1.0, 0.0))
    north = _cross(v, east)
    return _normalized(tuple(math.cos(bearing) * e + math.sin(bearing) * n for e, n in zip(east, north)))


def _moved(v, direction, angle: float) -> tuple[float, float, float]:
    return _normalized(tuple(math.cos(angle) * a + math.sin(angle) * d for a, d in zip(v, direction)))


def _coordinate(v) -> Coordinate:
    x, y, z = v
    return Coordinate(math.degrees(math.asin(max(-1.0, min(1.0, z)))), math.degrees(math.atan2(y, x)))


def _as_geo_path(vectors) -> GeoPath | None:
    nodes = [_coordinate(v) for v in vectors]
    kept = [c for k, c in enumerate(nodes) if k == 0 or c.key != nodes[k - 1].key]
    return GeoPath(nodes=tuple(kept)) if len(kept) >= 2 else None


bearings = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def _route_and_follower(draw):
    """A route and a second route whose every node sits at a chosen
    distance from a node or an arc interior of the first, with the
    threshold and the radius the distances are measured for."""
    radius = 10 ** draw(st.floats(min_value=0.0, max_value=6.0))
    if draw(st.booleans()):
        # Mostly thresholds of at most one radian, where the bounds decide.
        threshold = 10 ** draw(st.floats(min_value=-9.5, max_value=0.2)) * radius
        threshold = min(max(threshold, 1e-3), 2e4)
    else:
        threshold = 10 ** draw(st.floats(min_value=-3.0, max_value=math.log10(2e4)))
    x = threshold / radius

    start = draw(st.sampled_from(["any", "pole", "antimeridian"]))
    lat, lon = draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))
    if start == "pole":
        lat = math.copysign(90.0 - 10 ** draw(st.floats(-8.0, 1.0)), lat)
    elif start == "antimeridian":
        lat, lon = lat * 0.75, math.copysign(180.0 - 10 ** draw(st.floats(-8.0, 0.5)), lon)
    route = [_unit_vector(Coordinate(lat, lon))]
    for _ in range(draw(st.integers(1, 19))):
        if draw(st.integers(0, 9)) == 0:  # a near-antipodal segment
            antipode = tuple(-c for c in route[-1])
            route.append(_moved(antipode, _heading(antipode, draw(bearings)), 10 ** draw(st.floats(-10.0, -3.0))))
        else:
            arc = math.radians(10 ** draw(st.floats(-6.0, math.log10(90.0))))
            route.append(_moved(route[-1], _heading(route[-1], draw(bearings)), arc))

    offsets = st.one_of(
        st.sampled_from([0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12]), st.floats(min_value=0.0, max_value=2.5)
    )
    follower = []
    for _ in range(draw(st.integers(2, 20))):
        angle = x * draw(offsets)
        k = draw(st.integers(0, len(route) - 1))
        if draw(st.booleans()) or k == len(route) - 1:
            v = route[k]
            follower.append(_moved(v, _heading(v, draw(bearings)), angle))
            continue
        a, b = route[k], route[k + 1]
        s = draw(st.floats(0.0, 1.0))
        mid, normal = tuple((1 - s) * p + s * q for p, q in zip(a, b)), _cross(a, b)
        if min(_norm(mid), _norm(normal)) < 1e-12:
            follower.append(a)
            continue
        mid, normal = _normalized(mid), _normalized(normal)
        if draw(st.booleans()):  # across the arc, so that the cross-track distance is the offset
            normal = tuple(-c for c in normal)
        follower.append(_moved(mid, normal, angle))
    return _as_geo_path(route), _as_geo_path(follower), threshold, radius


@given(_route_and_follower())
def test_geo_equal_equals_the_kernel_scan(case):
    route, follower, threshold, radius = case
    assume(route is not None and follower is not None)
    for p, l in ((follower, route), (route, follower)):
        pp, lp = p.prepared, l.prepared
        # Node by node, so that a node the bounds get wrong cannot hide
        # behind another node that fails.
        for u in pp.points:
            assert lp.covers([u], threshold, radius) == (prepared_distance(lp, u, radius, threshold) <= threshold)
        want = all(prepared_distance(lp, u, radius, threshold) <= threshold for u in pp.points)
        assert lp.covers(pp.points, threshold, radius) == want
    assert geo_equal(follower, route, threshold, radius) == geo_equal_scan(follower, route, threshold, radius)


@given(_route_and_follower())
def test_distance_equals_the_kernel_scan(case):
    # The exact scan skips arcs by chord bounds at the best distance so
    # far; every node's distance must still be the full scan's bits.
    route, follower, _, radius = case
    assume(route is not None and follower is not None)
    for p, l in ((follower, route), (route, follower)):
        for u in p.prepared.points:
            assert l.prepared.distance(u, radius).hex() == prepared_distance(l.prepared, u, radius).hex()


def test_distance_past_one_radian_equals_the_kernel_scan():
    # Far points, most of them near the antipode of a node or of an arc
    # point, so that the best distance so far (or the limit) passes one
    # radian while the chord bounds still skip arcs.
    rng = random.Random(23)
    queries = 0
    while queries < 20_000:
        radius = 10 ** rng.uniform(0.0, 6.0)
        route = [_normalized(tuple(rng.gauss(0.0, 1.0) for _ in range(3)))]
        for _ in range(rng.randint(1, 19)):
            v = route[-1]
            if rng.randrange(10) == 0:  # a near-antipodal segment
                v, angle = tuple(-c for c in v), 10 ** rng.uniform(-10.0, -3.0)
            else:
                angle = math.radians(10 ** rng.uniform(-6.0, math.log10(90.0)))
            route.append(_moved(v, _heading(v, rng.uniform(0.0, 2 * math.pi)), angle))
        path = _as_geo_path(route)
        if path is None:
            continue
        lp = path.prepared
        for _ in range(50):
            kind = rng.randrange(3)
            if kind == 0:  # anywhere
                q = _normalized(tuple(rng.gauss(0.0, 1.0) for _ in range(3)))
            else:  # near the antipode of a node (kind 1) or of an arc point (kind 2)
                k = rng.randrange(len(lp.points) - 1)
                s = rng.random() if kind == 2 else 0.0
                a, b = lp.points[k], lp.points[k + 1]
                antipode = _normalized(tuple(-((1 - s) * c + s * e) for c, e in zip(a, b)))
                q = _moved(antipode, _heading(antipode, rng.uniform(0.0, 2 * math.pi)), 10 ** rng.uniform(-10.0, 0.3))
            u = _prepare_point(_coordinate(q))
            within = rng.choice([-1.0, -1.0, radius * rng.uniform(0.0, 3.2)])
            got, want = lp.distance(u, radius, within), prepared_distance(lp, u, radius, within)
            if within < 0.0 or want <= within:
                assert got.hex() == want.hex(), (q, radius, within)
            else:  # past the limit, only the verdict is promised
                assert got > within, (q, radius, within)
            queries += 1


def test_a_large_single_corridor_pair_gets_the_scan_clusters(monkeypatch):
    rng = random.Random(20)
    base = [(40.0 + 5.0 * i / 14 + 0.3 * (i * 7 % 3), -100.0 + 20.0 * i / 14) for i in range(15)]
    paths = []
    for _ in range(60):
        interior = [(lat + rng.uniform(-0.05, 0.05), lon + rng.uniform(-0.05, 0.05)) for lat, lon in base[1:-1]]
        paths.append(_path(base[0], *interior, base[-1]))
    got = cluster_pair_routes(paths, 50.0)
    monkeypatch.setattr(cluster, "geo_equal", geo_equal_scan)
    assert got == cluster_pair_routes(paths, 50.0)
    assert len(got) == 1
