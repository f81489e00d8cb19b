import math
import random

import pytest

from geodiv import (
    Coordinate,
    GeoPath,
    cluster_pair_routes,
    delta_vector,
    geo_equal,
)

from oracles import point_to_path_distance_per_arc

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
