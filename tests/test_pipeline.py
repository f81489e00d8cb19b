import gc
import json
import logging
import multiprocessing
import os
import random
import time
import weakref

import pytest

from geodiv import (
    Coordinate,
    DiversityConfig,
    EmptyInput,
    GeoDb,
    GeoPath,
    ecdf,
    emit_report,
    run_pipeline,
    score_pair,
)
from geodiv import pipeline
from geodiv.pipeline import (
    PAIRS_CSV_HEADER,
    cluster_corpus,
    read_clusters_file,
    score_cluster_rows,
    write_clusters_file,
)
from geodiv.synthetic import generate_corpus

from test_cli import _deadline


def test_ecdf_counts_duplicates():
    table = ecdf([1.0, 1.0, 2.0])
    assert table.points == ((1.0, pytest.approx(2 / 3)), (2.0, 1.0))


def test_ecdf_single_value():
    assert ecdf([5.0]).points == ((5.0, 1.0),)


def test_ecdf_rejects_empty_input():
    with pytest.raises(EmptyInput):
        ecdf([])


def test_ecdf_invariants_on_random_samples():
    rng = random.Random(31)
    for _ in range(50):
        values = [rng.uniform(0, 10) for _ in range(rng.randint(1, 40))]
        points = ecdf(values).points
        xs = [v for v, _ in points]
        fs = [f for _, f in points]
        assert xs == sorted(set(xs))
        assert all(b >= a for a, b in zip(fs, fs[1:]))
        assert fs[-1] == 1.0


def test_ecdf_tracks_uniform_distribution():
    # Dvoretzky-Kiefer-Wolfowitz: for n = 1000 the 99% band is ~0.052.
    rng = random.Random(424242)
    values = [rng.random() for _ in range(1000)]
    worst = max(abs(f - v) for v, f in ecdf(values).points)
    assert worst < 0.06


def test_pipeline_on_seven_route_corpus(seven_route_corpus):
    traces, geodb, expected = seven_route_corpus
    summary = run_pipeline(traces, geodb)
    assert summary.total_pairs == 1
    assert summary.pairs_scored == 1
    report = summary.per_pair[0]
    assert report.ip_route_count == expected["ip_routes"]
    assert report.geo_path_count == expected["geo_paths"]
    assert report.cluster_count == expected["clusters"]
    assert report.compression_ratio == pytest.approx(expected["compression"], abs=1e-6)
    assert report.gdi_km > 0.0
    assert report.mgdi_km > 0.0


def test_pipeline_empty_trace_file(tmp_path):
    traces = tmp_path / "traces.jsonl"
    geodb = tmp_path / "geodb.csv"
    traces.write_text("", encoding="utf-8")
    geodb.write_text("10.0.0.0/8,0.0,0.0\n", encoding="utf-8")
    summary = run_pipeline(traces, geodb)
    assert summary.total_pairs == 0
    assert summary.per_pair == ()
    paths = emit_report(summary, tmp_path / "out")
    ecdf_lines = (tmp_path / "out" / "compression_ecdf.csv").read_text().splitlines()
    assert ecdf_lines == ["value,cum_fraction"]


def test_pipeline_all_single_route_pairs(tmp_path):
    traces = tmp_path / "traces.jsonl"
    geodb = tmp_path / "geodb.csv"
    lines = [
        json.dumps({"src": "172.16.0.1", "dst": "172.16.0.2", "hops": ["10.1.0.1", "10.2.0.1"]}),
        json.dumps({"src": "172.16.0.3", "dst": "172.16.0.4", "hops": ["10.3.0.1", "10.4.0.1"]}),
    ]
    traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
    geodb.write_text(
        "10.1.0.0/16,0.0,0.0\n10.2.0.0/16,5.0,5.0\n10.3.0.0/16,10.0,10.0\n10.4.0.0/16,15.0,15.0\n",
        encoding="utf-8",
    )
    summary = run_pipeline(traces, geodb)
    assert summary.pairs_scored == 0
    assert summary.pairs_removed_stage1 == 2


def test_emit_report_layout(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    summary = run_pipeline(traces, geodb)
    out = tmp_path / "out"
    written = emit_report(summary, out)
    assert [p.name for p in written] == [
        "report.json",
        "pairs.csv",
        "compression_ecdf.csv",
        "gdi_ratio_ecdf.csv",
    ]
    pairs_lines = (out / "pairs.csv").read_text().splitlines()
    assert pairs_lines[0] == PAIRS_CSV_HEADER
    assert len(pairs_lines) == 1 + summary.pairs_scored
    payload = json.loads((out / "report.json").read_text())
    assert payload["summary"]["total_pairs"] == summary.total_pairs
    assert payload["summary"]["pairs_scored"] == summary.pairs_scored
    assert len(payload["pairs"]) == summary.pairs_scored
    # The ratio ECDF only covers pairs with at least 2 clusters.
    ratio_rows = (out / "gdi_ratio_ecdf.csv").read_text().splitlines()[1:]
    eligible = {r.gdi_over_mgdi for r in summary.per_pair if r.cluster_count >= 2}
    assert len(ratio_rows) == len({f"{v:.6f}" for v in eligible})


def test_emit_report_is_byte_stable(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    summary = run_pipeline(traces, geodb)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    emit_report(summary, out1)
    emit_report(run_pipeline(traces, geodb), out2)
    for name in ("report.json", "pairs.csv", "compression_ecdf.csv", "gdi_ratio_ecdf.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pipeline_summary_independent_of_jobs(seven_route_corpus):
    traces, geodb, _ = seven_route_corpus
    assert run_pipeline(traces, geodb, jobs=1) == run_pipeline(traces, geodb, jobs=2)


def test_accounting_reconciles(seven_route_corpus):
    traces, geodb, _ = seven_route_corpus
    s = run_pipeline(traces, geodb)
    assert s.total_pairs == s.pairs_removed_stage1 + s.pairs_removed_stage2 + s.pairs_scored


def _parallel_paths():
    # Two wide multi-node detours; their GDI exceeds the two-segment
    # triangle ceiling with the same longest length.
    p1 = GeoPath(
        nodes=(Coordinate(0, 0), Coordinate(1.8, 3), Coordinate(1.8, 6), Coordinate(0, 9))
    )
    p2 = GeoPath(
        nodes=(Coordinate(0, 0), Coordinate(-1.8, 3), Coordinate(-1.8, 6), Coordinate(0, 9))
    )
    return p1, p2


def test_gdi_over_mgdi_above_one_is_flagged(caplog):
    # The flag is logged by the process that merges the results, in pair
    # order, whichever process scored the pair.
    p1, p2 = _parallel_paths()
    flat = GeoPath(nodes=(Coordinate(0, 0), Coordinate(0, 9)))
    rows = [
        (("10.0.0.3", "10.9.0.1"), (p1, p2), 2, 2),
        (("10.0.0.2", "10.9.0.1"), (p1, flat), 2, 2),
        (("10.0.0.1", "10.9.0.1"), (p2, p1), 2, 2),
    ]
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="geodiv.pipeline"):
            reports = score_cluster_rows(rows, DiversityConfig(), jobs=jobs)
        flagged = [r for r in reports if r.gdi_over_mgdi > 1.0]
        assert [r.src for r in flagged] == ["10.0.0.1", "10.0.0.3"]
        assert caplog.messages == [
            f"pair {r.src} -> {r.dst}: GDI {r.gdi_km:.3f} km exceeds MGDI {r.mgdi_km:.3f} km"
            for r in flagged
        ]
        assert [r.name for r in caplog.records] == ["geodiv.pipeline"] * 2


def _rows(count):
    p1, p2 = _parallel_paths()
    return [((f"10.0.0.{i}", "10.9.0.1"), (p1, p2), 2, 2) for i in range(count)]


def test_stripes_start_one_child_fewer_than_their_count(monkeypatch):
    started = []

    class CountingProcess(pipeline._FORK.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pipeline._FORK, "Process", CountingProcess)
    want = score_cluster_rows(_rows(3), DiversityConfig(), jobs=1)
    counts = []
    for count, jobs in ((3, 64), (3, 2), (1, 64), (3, 1)):
        started.clear()
        with _deadline(60):
            reports = score_cluster_rows(_rows(count), DiversityConfig(), jobs=jobs)
        assert reports == want[:count]
        counts.append(len(started))
    assert counts == [2, 1, 0, 0]
    assert multiprocessing.active_children() == []


def test_first_failing_pair_in_pair_order_wins(monkeypatch):
    def fails_on_some(pair, *args):
        if pair[0] in ("10.0.0.2", "10.0.0.3", "10.0.0.5"):
            raise ValueError(f"cannot score {pair[0]}")
        return score_clustered(pair, *args)

    score_clustered = pipeline.score_clustered_pair
    monkeypatch.setattr(pipeline, "score_clustered_pair", fails_on_some)
    rows = _rows(6)
    random.Random(3).shuffle(rows)
    for jobs in (1, 2, 3):
        # At --jobs 3 the first failure is a child's, and the main
        # process's own stripe fails later, at 10.0.0.3.
        with _deadline(60), pytest.raises(ValueError, match=r"^cannot score 10\.0\.0\.2$"):
            score_cluster_rows(rows, DiversityConfig(), jobs=jobs)
    assert multiprocessing.active_children() == []


def test_failing_main_stripe_next_to_a_large_child_result_fails_promptly(monkeypatch):
    # The child's stripe result is far larger than a pipe buffer, so it is
    # still sending when the main process's own stripe has failed.
    def fails_first(pair, *args):
        if pair[0] == "10.0.0.0":
            raise ValueError("the main stripe fails")
        return "x" * 1_000_000

    monkeypatch.setattr(pipeline, "score_clustered_pair", fails_first)
    start = time.perf_counter()
    with _deadline(60), pytest.raises(ValueError, match="the main stripe fails"):
        score_cluster_rows(_rows(4), DiversityConfig(), jobs=2)
    assert time.perf_counter() - start < 30.0
    assert multiprocessing.active_children() == []


def test_a_child_that_exits_without_a_result_is_an_error():
    with _deadline(60), pytest.raises(RuntimeError, match="exited without a result"):
        pipeline._run_forked([lambda: 1, lambda: os._exit(3)])
    assert multiprocessing.active_children() == []


def test_a_stripe_frees_the_full_inputs_before_scoring(seven_route_corpus, monkeypatch):
    # Once a process has localized its stripe it holds neither the route
    # sets nor the snapshot, so scoring does not run next to the corpus.
    traces, geodb, _ = seven_route_corpus
    inputs = []

    def remember(load):
        def loaded(path):
            result = load(path)
            inputs.append(weakref.ref(result if isinstance(result, GeoDb) else next(iter(result.values()))))
            return result

        return loaded

    monkeypatch.setattr(pipeline, "load_geodb", remember(pipeline.load_geodb))
    monkeypatch.setattr(pipeline, "group_by_pair", remember(pipeline.group_by_pair))
    alive = []

    def score(*args):
        gc.collect()
        alive.append([ref() is not None for ref in inputs])
        return real_score(*args)

    real_score = pipeline.score_pair
    monkeypatch.setattr(pipeline, "score_pair", score)
    assert run_pipeline(traces, geodb, jobs=1).pairs_scored == 1
    assert alive == [[False, False]]


def test_reader_gives_the_same_front_half(seven_route_corpus, tmp_path):
    # The clustered pairs carry every surviving pair's geo-paths, with
    # their origin routes, and its IP route count.
    cfg = DiversityConfig()
    traces, geodb, _ = seven_route_corpus
    assert cluster_corpus(traces, geodb, cfg, jobs=2) == cluster_corpus(traces, geodb, cfg)
    assert multiprocessing.active_children() == []
    corpus = generate_corpus(n_pairs=60, seed=5)
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    corpus.write(traces, geodb)
    serial = cluster_corpus(traces, geodb, cfg, jobs=1)
    assert serial[0] and cluster_corpus(traces, geodb, cfg, jobs=2) == serial


def test_mgdi_zero_for_loop_route():
    # The longest representative starts and ends at the same node: no
    # triangle geometry, MGDI 0, and a diverse pair gets an infinite ratio.
    import math

    loop = GeoPath(nodes=(Coordinate(0, 0), Coordinate(4, 4), Coordinate(0, 0)))
    other = GeoPath(nodes=(Coordinate(0, 0), Coordinate(1, 1), Coordinate(0, 0.0001)))
    report = score_pair(("10.0.0.1", "10.9.0.1"), (loop, other), 2, DiversityConfig())
    assert report.mgdi_km == 0.0
    assert report.gdi_km > 0.0
    assert math.isinf(report.gdi_over_mgdi)


def test_clusters_file_round_trip(seven_route_corpus, tmp_path):
    traces, geodb, expected = seven_route_corpus
    cfg = DiversityConfig()
    clustered, stats = cluster_corpus(traces, geodb, cfg)
    path = write_clusters_file(clustered, cfg, tmp_path / "clusters.json", stats=stats)
    rows, radius, read_stats = read_clusters_file(path)
    assert radius == cfg.earth_radius_km
    assert read_stats == stats
    assert len(rows) == 1
    pair, representatives, geo_path_count, ip_route_count = rows[0]
    assert ip_route_count == expected["ip_routes"]
    assert geo_path_count == expected["geo_paths"]
    assert len(representatives) == expected["clusters"]
    want = [c.representative.nodes for c in clustered[0].clusters]
    assert [r.nodes for r in representatives] == want
