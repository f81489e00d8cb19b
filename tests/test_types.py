"""The value types' contract: construction, equality and hashing, repr,
immutability and pickling, and the key order of the files built from them."""

import json
import pickle

import pytest

from geodiv import Coordinate, DiversityConfig, DiversityReport, FilterStats, GeoPath
from geodiv.cli import main
from geodiv.cluster import Cluster
from geodiv.pipeline import ClusteredPair
from geodiv.traces import RouteSet, TraceRecord

_A, _B = Coordinate(0.0, 0.0), Coordinate(1.0, 1.0)
_PATH = GeoPath((_A, _B), (("10.0.0.1", "10.0.0.2"),))
_PATH_REPR = (
    "GeoPath(nodes=(Coordinate(lat=0.0, lon=0.0), Coordinate(lat=1.0, lon=1.0)), "
    "origin_routes=(('10.0.0.1', '10.0.0.2'),))"
)
_REPORT = DiversityReport("10.0.0.1", "10.9.0.1", 3, 2, 2, 1.5, 10.0, 20.0, 0.5)
_REPORT_REPR = (
    "DiversityReport(src='10.0.0.1', dst='10.9.0.1', ip_route_count=3, geo_path_count=2, "
    "cluster_count=2, compression_ratio=1.5, gdi_km=10.0, mgdi_km=20.0, gdi_over_mgdi=0.5)"
)

# (type, keyword arguments in field order, another value, repr as the
# dataclasses these types once were printed it)
CASES = [
    (Coordinate, {"lat": 1.5, "lon": 180.0}, {"lat": 1.5, "lon": 179.0}, "Coordinate(lat=1.5, lon=-180.0)"),
    (
        TraceRecord,
        {"src": "10.0.0.1", "dst": "10.9.0.1", "hops": ("10.1.0.1", "*")},
        {"src": "10.0.0.1", "dst": "10.9.0.1", "hops": ("10.1.0.1",)},
        "TraceRecord(src='10.0.0.1', dst='10.9.0.1', hops=('10.1.0.1', '*'))",
    ),
    (
        RouteSet,
        {"pair": ("10.0.0.1", "10.9.0.1"), "ip_routes": (("10.1.0.1",),)},
        {"pair": ("10.0.0.1", "10.9.0.1"), "ip_routes": (("10.1.0.2",),)},
        "RouteSet(pair=('10.0.0.1', '10.9.0.1'), ip_routes=(('10.1.0.1',),))",
    ),
    (GeoPath, {"nodes": (_A, _B), "origin_routes": (("10.0.0.1", "10.0.0.2"),)}, {"nodes": (_B, _A)}, _PATH_REPR),
    (
        FilterStats,
        {"input_pairs": 5, "removed_single_ip_route": 2, "removed_single_geo_path": 1},
        {"input_pairs": 5, "removed_single_ip_route": 1, "removed_single_geo_path": 2},
        "FilterStats(input_pairs=5, removed_single_ip_route=2, removed_single_geo_path=1)",
    ),
    (Cluster, {"id": 0, "members": (_PATH,)}, {"id": 1, "members": (_PATH,)}, f"Cluster(id=0, members=({_PATH_REPR},))"),
    (
        DiversityConfig,
        {"threshold_km": 50.0, "earth_radius_km": 6371.0, "mgdi_grid_steps": 21},
        {"threshold_km": 50.0, "earth_radius_km": 6371.0, "mgdi_grid_steps": 41},
        "DiversityConfig(threshold_km=50.0, earth_radius_km=6371.0, mgdi_grid_steps=21)",
    ),
    (DiversityReport, _REPORT._asdict(), {**_REPORT._asdict(), "gdi_km": 11.0}, _REPORT_REPR),
    (
        ClusteredPair,
        {"pair": ("10.0.0.1", "10.9.0.1"), "ip_route_count": 3, "geo_path_count": 2, "clusters": ()},
        {"pair": ("10.0.0.1", "10.9.0.1"), "ip_route_count": 3, "geo_path_count": 3, "clusters": ()},
        "ClusteredPair(pair=('10.0.0.1', '10.9.0.1'), ip_route_count=3, geo_path_count=2, clusters=())",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, fields, other, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert by_keyword != cls(**other)
    assert repr(by_keyword) == text
    for name in fields:
        assert getattr(by_keyword, name) == getattr(by_position, name)
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, getattr(by_keyword, name))
    copy = pickle.loads(pickle.dumps(by_keyword))
    assert type(copy) is cls
    assert copy == by_keyword and hash(copy) == hash(by_keyword) and repr(copy) == text


def test_coordinate_order_zero_and_antimeridian():
    points = [Coordinate(1.0, -5.0), Coordinate(-2.0, 3.0), Coordinate(1.0, -6.0), Coordinate(-2.0, 2.5)]
    assert sorted(points) == [points[3], points[1], points[2], points[0]]
    low, high = Coordinate(1.0, -6.0), Coordinate(1.0, -5.0)
    assert low < high and low <= high and high > low and high >= low and low <= Coordinate(1.0, -6.0)
    assert not high < low and not low > high
    with pytest.raises(TypeError):
        _ = low < (1.0, -5.0)
    assert low != (1.0, -6.0)
    # Signed zeros are one position, as floats are.
    assert Coordinate(-0.0, 0.0) == Coordinate(0.0, -0.0)
    assert hash(Coordinate(-0.0, 0.0)) == hash(Coordinate(0.0, -0.0))
    # 180 is -180; a longitude that only rounds to 180 keeps its value but
    # shares -180's key.
    assert Coordinate(10.0, 180.0) == Coordinate(10.0, -180.0)
    assert Coordinate(10.0, 180.0).lon == -180.0
    near = Coordinate(10.0, 179.9999999)
    assert near.lon == 179.9999999 and near != Coordinate(10.0, -180.0)
    assert near.key == Coordinate(10.0, -180.0).key == (10.0, -180.0)


def test_a_pickled_geo_path_leaves_its_trigonometry_behind():
    path = GeoPath((_A, _B, Coordinate(2.0, 0.5)))
    fresh = pickle.dumps(GeoPath((_A, _B, Coordinate(2.0, 0.5))))
    prepared = path.prepared
    assert pickle.dumps(path) == fresh
    copy = pickle.loads(fresh)
    assert "prepared" not in vars(copy)
    assert copy.prepared.points == prepared.points and copy.prepared.normals == prepared.normals


def test_report_and_clusters_file_key_order(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    inputs = ["--traces", str(traces), "--geodb", str(geodb), "--jobs", "1"]
    assert main(["pipeline", *inputs, "--out", str(tmp_path / "direct")]) == 0
    assert main(["cluster", *inputs, "--out", str(tmp_path / "staged")]) == 0
    report = json.loads((tmp_path / "direct" / "report.json").read_text(encoding="utf-8"))
    assert list(report) == ["summary", "pairs"]
    assert list(report["summary"]) == ["total_pairs", "pairs_removed_stage1", "pairs_removed_stage2", "pairs_scored"]
    assert list(report["pairs"][0]) == [
        "src", "dst", "ip_route_count", "geo_path_count", "cluster_count",
        "compression_ratio", "gdi_km", "mgdi_km", "gdi_over_mgdi",
    ]
    clusters = json.loads((tmp_path / "staged" / "clusters.json").read_text(encoding="utf-8"))
    assert list(clusters) == ["threshold_km", "earth_radius_km", "filter_stats", "pairs"]
    assert list(clusters["filter_stats"]) == ["input_pairs", "removed_single_ip_route", "removed_single_geo_path"]
    pair = clusters["pairs"][0]
    assert list(pair) == ["src", "dst", "ip_route_count", "geo_path_count", "clusters"]
    assert list(pair["clusters"][0]) == ["id", "representative", "members"]
    assert list(pair["clusters"][0]["members"][0]) == ["nodes", "origin_routes"]
