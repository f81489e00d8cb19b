"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest output)."""

import contextlib
import itertools
import math
import random
import time

import pytest
from corpus import CorpusSpec, build_corpus

from geodiv import (
    Coordinate,
    GeoPath,
    cluster_pair_routes,
    gdi,
    geo_equal,
    pair_diversity,
    run_pipeline,
)
from geodiv.diversity import diversity_from_delta
from geodiv.geodesy import great_circle_distance, point_to_path_distance
from geodiv.cli import main as cli_main
from oracles import delta_score, greedy_replay, sampled_point_to_polyline


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_gdi_ordering(grid_routes):
    with criterion(1, "GDI ordering on the 84 km grid layout"):
        start = time.perf_counter()
        r1, r2, r3, r4, r5 = (grid_routes[k] for k in ("R1", "R2", "R3", "R4", "R5"))
        base = gdi([r1, r3])
        with_r4 = gdi([r1, r3, r4])
        with_r5 = gdi([r1, r3, r5])
        with_r2 = gdi([r1, r3, r2])
        elapsed = time.perf_counter() - start
        assert base < with_r4 < with_r5 < with_r2
        assert elapsed < 1.0


def test_criterion_2_seven_routes_three_clusters(seven_route_corpus):
    with criterion(2, "7 IP routes collapse to 3 clusters, compression 2.3333"):
        traces, geodb, expected = seven_route_corpus
        start = time.perf_counter()
        reports, _ = run_pipeline(traces, geodb)
        elapsed = time.perf_counter() - start
        report = reports[0]
        assert report.ip_route_count == 7
        assert report.cluster_count == 3
        assert abs(report.compression_ratio - 2.3333333333) < 1e-6
        assert elapsed < 1.0


def test_criterion_3_pairwise_score_oracle():
    with criterion(3, "pairwise score matches direct evaluation on 1000 random vectors"):
        rng = random.Random(1001)
        for _ in range(1000):
            n = rng.randint(1, 25)
            values = [rng.uniform(0.0, 5000.0) for _ in range(n)]
            if rng.random() < 0.1:
                values = [0.0] * n
            if rng.random() < 0.1:
                values[rng.randrange(n)] = 0.0
            got = diversity_from_delta(values)
            want = delta_score(values)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            base = got
            for c in (0.5, 2.0, 10.0):
                scaled = diversity_from_delta([c * v for v in values])
                assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)


def _random_planar_paths(rng: random.Random, count: int) -> list[GeoPath]:
    paths = []
    for _ in range(count):
        nodes = []
        length = rng.randint(2, 3)
        while len(nodes) < length:
            c = Coordinate(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            if not nodes or c != nodes[-1]:
                nodes.append(c)
        paths.append(GeoPath(nodes=tuple(nodes)))
    return paths


def test_criterion_4_greedy_accumulation_oracle():
    with criterion(4, "greedy GDI matches step-by-step replay on 200 configurations"):
        rng = random.Random(4004)
        for _ in range(200):
            config = _random_planar_paths(rng, 5)
            for size in range(1, 6):
                for subset in itertools.combinations(config, size):
                    ordered = sorted(subset, key=GeoPath.sort_key)
                    want = greedy_replay(ordered, pair_diversity)
                    got = gdi(subset)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_criterion_5_geodesy_oracle():
    with criterion(5, "segment distance matches 1 km dense sampling on 1000 segments"):
        d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 180))
        assert abs(d - math.pi * 6371.0) < 1e-3
        d = great_circle_distance(Coordinate(0, 0), Coordinate(0, 1))
        assert abs(d - math.pi * 6371.0 / 180.0) < 1e-3

        rng = random.Random(5005)
        checked = 0
        while checked < 1000:
            lat = rng.uniform(-70.0, 70.0)
            lon = rng.uniform(-170.0, 170.0)
            a = (lat, lon)
            b = (
                min(89.0, max(-89.0, lat + rng.uniform(-4.5, 4.5))),
                lon + rng.uniform(-4.5, 4.5),
            )
            ca, cb = Coordinate(*a), Coordinate(*b)
            if great_circle_distance(ca, cb) >= 1000.0:
                continue
            p = (
                min(89.0, max(-89.0, lat + rng.uniform(-6.0, 6.0))),
                lon + rng.uniform(-6.0, 6.0),
            )
            cp = Coordinate(*p)
            assert great_circle_distance(cp, ca) == great_circle_distance(ca, cp)
            got = point_to_path_distance(cp, (ca, cb))
            oracle = sampled_point_to_polyline(p, [a, b])
            assert abs(got - oracle) < 0.5
            checked += 1


def _random_cluster_input(rng: random.Random) -> list[GeoPath]:
    paths = []
    for _ in range(rng.randint(1, 8)):
        nodes = []
        length = rng.randint(2, 4)
        while len(nodes) < length:
            c = Coordinate(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            if not nodes or c != nodes[-1]:
                nodes.append(c)
        paths.append(GeoPath(nodes=tuple(nodes)))
    return paths


def test_criterion_6_clustering_invariants():
    with criterion(6, "clustering is complete-linkage valid and threshold-monotone on 500 sets"):
        rng = random.Random(6006)
        thresholds = (25.0, 50.0, 100.0, 200.0)
        for _ in range(500):
            paths = _random_cluster_input(rng)
            counts = []
            for threshold in thresholds:
                clusters = cluster_pair_routes(paths, threshold)
                members = [p for c in clusters for p in c.members]
                assert sorted(members, key=GeoPath.sort_key) == sorted(
                    paths, key=GeoPath.sort_key
                )
                for cluster in clusters:
                    for p, l in itertools.combinations(cluster.members, 2):
                        assert geo_equal(p, l, threshold)
                counts.append(len(clusters))
            assert counts == sorted(counts, reverse=True)


def test_criterion_7_pipeline_determinism(small_pool, tmp_path):
    with criterion(7, "pipeline output is byte-identical for --jobs 1 and --jobs 8"):
        # 1442 pairs in the 40/20/40 and 35/40/25 mixes, topped up to 10,000 lines.
        spec = CorpusSpec(
            "small", {1: 202, 2: 231, 3: 144}, single_route=577, single_geopath=288, min_lines=10_000
        )
        corpus = build_corpus(spec, 20240810, small_pool)
        assert len(corpus.trace_lines) >= 10_000
        traces, geodb = corpus.write(tmp_path)

        start = time.perf_counter()
        rc1 = cli_main(
            ["pipeline", "--traces", str(traces), "--geodb", str(geodb),
             "--out", str(tmp_path / "serial"), "--jobs", "1"]
        )
        rc8 = cli_main(
            ["pipeline", "--traces", str(traces), "--geodb", str(geodb),
             "--out", str(tmp_path / "parallel"), "--jobs", "8"]
        )
        elapsed = time.perf_counter() - start
        assert rc1 == 0 and rc8 == 0
        for name in ("report.json", "pairs.csv", "compression_ecdf.csv", "gdi_ratio_ecdf.csv"):
            serial = (tmp_path / "serial" / name).read_bytes()
            parallel = (tmp_path / "parallel" / name).read_bytes()
            assert serial == parallel, f"{name} differs between worker counts"
        assert elapsed < 30.0


def test_criterion_8_planted_corpus_recovery(small_pool, tmp_path):
    with criterion(8, "planted cluster structure recovered for 100% of 1000 pairs"):
        spec = CorpusSpec("small", {1: 140, 2: 160, 3: 100}, single_route=400, single_geopath=200)
        corpus = build_corpus(spec, 808, small_pool)
        assert corpus.summary["total_pairs"] == 1000
        traces, geodb = corpus.write(tmp_path)
        reports, stats = run_pipeline(traces, geodb, jobs=2)

        assert stats.input_pairs == 1000
        assert stats.removed_single_ip_route == corpus.summary["pairs_removed_stage1"]
        assert stats.removed_single_geo_path == corpus.summary["pairs_removed_stage2"]
        assert len(reports) == corpus.summary["pairs_scored"]

        planted = corpus.pairs
        mismatched = [
            report
            for report in reports
            if report.cluster_count != planted[(report.src, report.dst)]["clusters"]
            or report.ip_route_count != planted[(report.src, report.dst)]["ip_routes"]
            or report.geo_path_count != planted[(report.src, report.dst)]["geo_paths"]
        ]
        assert not mismatched
