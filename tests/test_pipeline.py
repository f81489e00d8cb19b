import gc
import json
import logging
import os
import pickle
import random
import sys
import time
import weakref

import pytest
from corpus import CorpusSpec, build_corpus

from geodiv import (
    Coordinate,
    DiversityConfig,
    FilterStats,
    GeoPath,
    emit_report,
    run_pipeline,
)
from geodiv import pipeline
from geodiv.cli import main
from geodiv.cluster import Cluster
from geodiv.geodesy import EARTH_RADIUS_KM, great_circle_distance, path_length
from geodiv.pipeline import (
    PAIRS_CSV_HEADER,
    ClusteredPair,
    _score_pair,
    cluster_corpus,
    ecdf,
    read_clusters_file,
    score_cluster_rows,
    score_clustered_pair,
    write_clusters_file,
)

from test_cli import _assert_no_child, _count_forks, _deadline
from test_traces import _file_outcome, outcome_from_pipe


def test_ecdf_counts_duplicates():
    assert ecdf([1.0, 1.0, 2.0]) == ((1.0, pytest.approx(2 / 3)), (2.0, 1.0))


def test_ecdf_single_value():
    assert ecdf([5.0]) == ((5.0, 1.0),)


def test_ecdf_rejects_empty_input():
    # No values give no points, which the reports write as a header alone.
    assert ecdf([]) == ()


def test_ecdf_invariants_on_random_samples():
    rng = random.Random(31)
    for _ in range(50):
        values = [rng.uniform(0, 10) for _ in range(rng.randint(1, 40))]
        points = ecdf(values)
        xs = [v for v, _ in points]
        fs = [f for _, f in points]
        assert xs == sorted(set(xs))
        assert all(b >= a for a, b in zip(fs, fs[1:]))
        assert fs[-1] == 1.0


def test_ecdf_tracks_uniform_distribution():
    # Dvoretzky-Kiefer-Wolfowitz: for n = 1000 the 99% band is ~0.052.
    rng = random.Random(424242)
    values = [rng.random() for _ in range(1000)]
    worst = max(abs(f - v) for v, f in ecdf(values))
    assert worst < 0.06


def test_pipeline_on_seven_route_corpus(seven_route_corpus):
    traces, geodb, expected = seven_route_corpus
    reports, stats = run_pipeline(traces, geodb)
    assert stats.input_pairs == 1
    assert len(reports) == 1
    report = reports[0]
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
    reports, stats = run_pipeline(traces, geodb)
    assert stats.input_pairs == 0
    assert reports == []
    paths = emit_report(reports, stats, tmp_path / "out")
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
    reports, stats = run_pipeline(traces, geodb)
    assert len(reports) == 0
    assert stats.removed_single_ip_route == 2


def test_emit_report_layout(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    reports, stats = run_pipeline(traces, geodb)
    out = tmp_path / "out"
    written = emit_report(reports, stats, out)
    assert [p.name for p in written] == [
        "report.json",
        "pairs.csv",
        "compression_ecdf.csv",
        "gdi_ratio_ecdf.csv",
    ]
    pairs_lines = (out / "pairs.csv").read_text().splitlines()
    assert pairs_lines[0] == PAIRS_CSV_HEADER
    assert len(pairs_lines) == 1 + len(reports)
    payload = json.loads((out / "report.json").read_text())
    assert payload["summary"]["total_pairs"] == stats.input_pairs
    assert payload["summary"]["pairs_scored"] == len(reports)
    assert len(payload["pairs"]) == len(reports)
    # The ratio ECDF only covers pairs with at least 2 clusters.
    ratio_rows = (out / "gdi_ratio_ecdf.csv").read_text().splitlines()[1:]
    eligible = {r.gdi_over_mgdi for r in reports if r.cluster_count >= 2}
    assert len(ratio_rows) == len({f"{v:.6f}" for v in eligible})


def test_emit_report_is_byte_stable(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    reports, stats = run_pipeline(traces, geodb)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    emit_report(reports, stats, out1)
    emit_report(*run_pipeline(traces, geodb), out2)
    for name in ("report.json", "pairs.csv", "compression_ecdf.csv", "gdi_ratio_ecdf.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pipeline_summary_independent_of_jobs(seven_route_corpus):
    traces, geodb, _ = seven_route_corpus
    assert run_pipeline(traces, geodb, jobs=1) == run_pipeline(traces, geodb, jobs=2)


def test_accounting_reconciles(seven_route_corpus):
    traces, geodb, _ = seven_route_corpus
    reports, s = run_pipeline(traces, geodb)
    assert s.input_pairs == s.removed_single_ip_route + s.removed_single_geo_path + len(reports)


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


def test_gdi_over_mgdi_above_one_is_flagged(tmp_path, capfd, caplog):
    # Scoring only returns reports. `geodiv gdi` writes the flag for each
    # pair over the ceiling, in pair order, whichever process scored it.
    p1, p2 = _parallel_paths()
    flat = GeoPath(nodes=(Coordinate(0, 0), Coordinate(0, 9)))
    rows = [
        _clustered(("10.0.0.3", "10.9.0.1"), (p1, p2)),
        _clustered(("10.0.0.2", "10.9.0.1"), (p1, flat)),
        _clustered(("10.0.0.1", "10.9.0.1"), (p2, p1)),
    ]
    clusters = tmp_path / "clusters.json"
    entries = [
        {"src": row.pair[0], "dst": row.pair[1], "ip_route_count": row.ip_route_count,
         "geo_path_count": row.geo_path_count,
         "clusters": [{"representative": [[n.lat, n.lon] for n in c.representative.nodes]}
                      for c in row.clusters]}
        for row in rows
    ]
    clusters.write_text(json.dumps({"pairs": entries}), encoding="utf-8")
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            reports = score_cluster_rows(rows, DiversityConfig(), jobs=jobs)
        assert caplog.records == []
        assert capfd.readouterr() == ("", "")
        flagged = [r for r in reports if r.gdi_over_mgdi > 1.0]
        assert [r.src for r in flagged] == ["10.0.0.1", "10.0.0.3"]
        out = tmp_path / f"out{jobs}"
        assert main(["gdi", "--clusters", str(clusters), "--out", str(out), "--jobs", str(jobs)]) == 0
        assert capfd.readouterr().err == (
            f"WARNING: 2 of {len(reports)} scored pairs have GDI above MGDI (gdi_over_mgdi > 1 in pairs.csv)\n"
        )


def _clustered(pair, representatives):
    """A two-route pair clustered into one cluster per representative."""
    clusters = tuple(Cluster(k, (rep,)) for k, rep in enumerate(representatives))
    return ClusteredPair(pair, 2, 2, clusters)


def _rows(count):
    p1, p2 = _parallel_paths()
    return [_clustered((f"10.0.0.{i}", "10.9.0.1"), (p1, p2)) for i in range(count)]


def test_stripes_start_one_child_fewer_than_their_count(monkeypatch):
    forks = _count_forks(monkeypatch)
    want = score_cluster_rows(_rows(3), DiversityConfig(), jobs=1)
    counts = []
    for count, jobs in ((3, 64), (3, 2), (1, 64), (3, 1)):
        forks.clear()
        with _deadline(60):
            reports = score_cluster_rows(_rows(count), DiversityConfig(), jobs=jobs)
        assert reports == want[:count]
        counts.append(len(forks))
    assert counts == [2, 1, 0, 0]
    _assert_no_child()


def test_first_failing_pair_in_pair_order_wins(monkeypatch):
    def fails_on_some(clustered, cfg):
        if clustered.pair[0] in ("10.0.0.2", "10.0.0.3", "10.0.0.5"):
            raise ValueError(f"cannot score {clustered.pair[0]}")
        return score_clustered(clustered, cfg)

    score_clustered = pipeline.score_clustered_pair
    monkeypatch.setattr(pipeline, "score_clustered_pair", fails_on_some)
    rows = _rows(6)
    random.Random(3).shuffle(rows)
    for jobs in (1, 2, 3):
        # At --jobs 3 the first failure is a child's, and the main
        # process's own stripe fails later, at 10.0.0.3.
        with _deadline(60), pytest.raises(ValueError, match=r"^cannot score 10\.0\.0\.2$"):
            score_cluster_rows(rows, DiversityConfig(), jobs=jobs)
    _assert_no_child()


def test_failing_main_stripe_next_to_a_large_child_result_fails_promptly(monkeypatch):
    # The child's stripe result is far larger than a pipe buffer, so it is
    # still sending when the main process's own stripe has failed.
    def fails_first(clustered, cfg):
        if clustered.pair[0] == "10.0.0.0":
            raise ValueError("the main stripe fails")
        return "x" * 1_000_000

    monkeypatch.setattr(pipeline, "score_clustered_pair", fails_first)
    start = time.perf_counter()
    with _deadline(60), pytest.raises(ValueError, match="the main stripe fails"):
        score_cluster_rows(_rows(4), DiversityConfig(), jobs=2)
    assert time.perf_counter() - start < 30.0
    _assert_no_child()


def test_a_child_that_exits_without_a_result_is_an_error():
    with _deadline(60), pytest.raises(RuntimeError, match="exited without a result"):
        pipeline._run_forked([lambda: 1, lambda: os._exit(3)])
    _assert_no_child()


@pytest.mark.parametrize("keep", [lambda data: data[:-1], lambda data: data[: len(data) // 2]], ids=["end", "half"])
def test_a_child_whose_result_is_cut_short_is_an_error(monkeypatch, keep):
    # The children inherit the patched pickle.dumps, so each pipe holds a
    # truncated pickle, as when a child dies while writing.
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda outcome: keep(dumps(outcome)))
    with _deadline(60), pytest.raises(RuntimeError, match="^a worker process exited without a result$"):
        pipeline._run_forked([lambda: 1, lambda: list(range(100_000)), lambda: "x" * 100_000])
    _assert_no_child()


def test_a_failed_fork_ends_the_children_already_started(monkeypatch):
    # The third fork fails while two children sleep: both are killed and
    # reaped at once, and no pipe end stays open.
    fork = os.fork
    forks = []

    def fork_twice():
        forks.append(None)
        if len(forks) == 3:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_twice)
    open_fds = sorted(os.listdir("/dev/fd"))
    start = time.perf_counter()
    with _deadline(60), pytest.raises(BlockingIOError):
        pipeline._run_forked([lambda: 1] + [lambda: time.sleep(600)] * 3)
    assert time.perf_counter() - start < 30.0
    assert sorted(os.listdir("/dev/fd")) == open_fds
    _assert_no_child()


def test_a_stripe_frees_the_full_inputs_before_scoring(seven_route_corpus, monkeypatch):
    # Once a process has localized its stripe it holds neither the route
    # sets nor the snapshot, so scoring does not run next to the corpus.
    # The test keeps one route set itself: at scoring, its only references
    # must be the test's own, as many as those of an object held the same way.
    traces, geodb, _ = seven_route_corpus
    snapshots, kept, probe = [], [], [object()]

    def load_geodb(path):
        db = real_load_geodb(path)
        snapshots.append(weakref.ref(db))
        return db

    def group_by_pair(records):
        route_sets = real_group_by_pair(records)
        kept.append(next(iter(route_sets.values())))
        return route_sets

    real_load_geodb, real_group_by_pair = pipeline.load_geodb, pipeline.group_by_pair
    monkeypatch.setattr(pipeline, "load_geodb", load_geodb)
    monkeypatch.setattr(pipeline, "group_by_pair", group_by_pair)
    alive = []

    def score(*args):
        gc.collect()
        alive.append((snapshots[0]() is not None, sys.getrefcount(kept[0]) - sys.getrefcount(probe[0])))
        return real_score(*args)

    real_score = pipeline._score_pair
    monkeypatch.setattr(pipeline, "_score_pair", score)
    assert len(run_pipeline(traces, geodb, jobs=1)[0]) == 1
    assert alive == [(False, 0)]


def test_reader_gives_the_same_front_half(seven_route_corpus, small_pool, tmp_path):
    # The clustered pairs carry every surviving pair's geo-paths, with
    # their origin routes, and its IP route count.
    cfg = DiversityConfig()
    traces, geodb, _ = seven_route_corpus
    assert cluster_corpus(traces, geodb, cfg, jobs=2) == cluster_corpus(traces, geodb, cfg)
    _assert_no_child()
    spec = CorpusSpec("small", {1: 8, 2: 10, 3: 6}, single_route=24, single_geopath=12)
    traces, geodb = build_corpus(spec, 5, small_pool).write(tmp_path)
    serial = cluster_corpus(traces, geodb, cfg, jobs=1)
    assert serial[0] and cluster_corpus(traces, geodb, cfg, jobs=2) == serial


def test_mgdi_zero_for_loop_route():
    # The longest representative starts and ends at the same node: no
    # triangle geometry, MGDI 0, and a diverse pair gets an infinite ratio.
    import math

    loop = GeoPath(nodes=(Coordinate(0, 0), Coordinate(4, 4), Coordinate(0, 0)))
    other = GeoPath(nodes=(Coordinate(0, 0), Coordinate(1, 1), Coordinate(0, 0.0001)))
    report = _score_pair(("10.0.0.1", "10.9.0.1"), (loop, other), 2, DiversityConfig())
    assert report.mgdi_km == 0.0
    assert report.gdi_km > 0.0
    assert math.isinf(report.gdi_over_mgdi)


def test_mgdi_inputs_are_path_length_and_great_circle_distance(small_pool, many_pool, monkeypatch):
    # Scoring measures each representative from its prepared nodes; the
    # longest one's length and endpoint distance must be the same bits as
    # path_length and great_circle_distance, on every benchmark geo-path.
    seen = []
    monkeypatch.setattr(pipeline, "gdi", lambda paths, radius: 0.0)
    monkeypatch.setattr(pipeline, "mgdi", lambda n, d, length, cfg: seen.append((n, d, length)) or 1.0)
    for radius in (EARTH_RADIUS_KM, 1.0):
        cfg = DiversityConfig(earth_radius_km=radius)
        for templates in (*small_pool.values(), *many_pool.values()):
            for template in templates:
                paths = [GeoPath(nodes=tuple(Coordinate(*n) for n in v)) for c in template.corridors for v in c]
                for group in (paths, *([path] for path in paths)):
                    seen.clear()
                    clusters = tuple(Cluster(k, (path,)) for k, path in enumerate(group))
                    score_clustered_pair(ClusteredPair(("10.0.0.1", "10.0.0.2"), len(group), len(group), clusters), cfg)
                    longest = max(group, key=lambda path: path_length(path.nodes, radius))
                    d = great_circle_distance(longest.nodes[0], longest.nodes[-1], radius)
                    assert seen == [(len(group), d, max(path_length(longest.nodes, radius), d))]


def test_loop_route_pair_writes_strict_json(tmp_path, capsys):
    # Both routes leave and come back to one location, so the pair's ratio
    # is infinite: pairs.csv says inf, and report.json null.
    hops = {"10.1.0.1": (0, 0), "10.1.0.2": (4, 4), "10.1.0.3": (0, 0),
            "10.2.0.1": (0, 0), "10.2.0.2": (-3, 5), "10.2.0.3": (0, 0)}
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    traces.write_text("".join(
        json.dumps({"src": "10.0.0.1", "dst": "10.9.0.1", "hops": [f"10.{r}.0.{h}" for h in (1, 2, 3)]}) + "\n"
        for r in (1, 2)
    ), encoding="utf-8")
    geodb.write_text("".join(f"{ip}/32,{lat},{lon}\n" for ip, (lat, lon) in hops.items()), encoding="utf-8")

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    inputs = ["--traces", str(traces), "--geodb", str(geodb)]
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert main(["pipeline", *inputs, "--out", str(out / "direct"), "--jobs", jobs]) == 0
        assert main(["cluster", *inputs, "--out", str(out / "staged"), "--jobs", jobs]) == 0
        clusters = out / "staged" / "clusters.json"
        json.loads(clusters.read_text(encoding="utf-8"), parse_constant=strict)
        assert main(["gdi", "--clusters", str(clusters), "--out", str(out / "scored"), "--jobs", jobs]) == 0
        assert capsys.readouterr().err == 2 * (
            "WARNING: 1 of 1 scored pairs have GDI above MGDI (gdi_over_mgdi > 1 in pairs.csv)\n"
        )
        for name in ("direct", "scored"):
            report = json.loads((out / name / "report.json").read_text(encoding="utf-8"), parse_constant=strict)
            assert report["pairs"][0]["mgdi_km"] == 0.0 < report["pairs"][0]["gdi_km"]
            assert report["pairs"][0]["gdi_over_mgdi"] is None
            assert (out / name / "pairs.csv").read_text(encoding="utf-8").splitlines()[1].endswith(",inf")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("name", ["clean", "bad-json-late", "bad-byte-late", "bad-json-after-lone-cr"])
def test_clusters_file_reads_a_pipe_once(seven_route_corpus, tmp_path, name):
    """A clusters file from a pipe loads, or fails at its line and offset,
    as the same file does."""
    traces, geodb, _ = seven_route_corpus
    cfg = DiversityConfig()
    clustered, stats = cluster_corpus(traces, geodb, cfg)
    text = write_clusters_file(clustered, cfg, tmp_path / "written.json", stats=stats).read_bytes()
    content = {
        "clean": b"\n" * 9000 + text,
        "bad-json-late": b"\n" * 9000 + text[:-3],
        "bad-byte-late": b"\n" * 9000 + text.replace(b'"dst": "', b'"dst": "\xff', 1),
        "bad-json-after-lone-cr": b"\r" * 9000 + text[:-3],
    }[name]
    regular = tmp_path / "clusters.json"
    regular.write_bytes(content)
    outcome = outcome_from_pipe(read_clusters_file, content, regular)
    assert outcome == _file_outcome(read_clusters_file, regular)
    assert (outcome[1] is None) == (name == "clean")
    if name == "bad-json-after-lone-cr":
        # An error's line counts a lone \r as a line end, as a text read does.
        regular.write_bytes(b"\n" * 9000 + text[:-3])
        assert outcome == _file_outcome(read_clusters_file, regular)


def test_clusters_file_round_trip(seven_route_corpus, tmp_path):
    traces, geodb, expected = seven_route_corpus
    cfg = DiversityConfig()
    clustered, stats = cluster_corpus(traces, geodb, cfg)
    path = write_clusters_file(clustered, cfg, tmp_path / "clusters.json", stats=stats)
    rows, radius, read_stats = read_clusters_file(path)
    assert radius == cfg.earth_radius_km
    assert read_stats == stats
    # Each cluster comes back cut down to its representative's nodes, and
    # scoring the rows gives the pipeline's reports.
    assert rows == [
        cp._replace(clusters=tuple(Cluster(c.id, (GeoPath(c.representative.nodes),)) for c in cp.clusters))
        for cp in clustered
    ]
    assert score_cluster_rows(rows, cfg) == run_pipeline(traces, geodb, cfg)[0]
    # A file that records neither gives the default radius, and counts
    # every pair in it as scored.
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["earth_radius_km"], payload["filter_stats"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(payload), encoding="utf-8")
    assert read_clusters_file(bare)[1:] == (EARTH_RADIUS_KM, FilterStats(1, 0, 0))
    # Only a missing, null or zero radius means "not recorded".
    for recorded in (None, 0, 0.0, -0.0):
        bare.write_text(json.dumps({**payload, "earth_radius_km": recorded}), encoding="utf-8")
        assert read_clusters_file(bare)[1] == EARTH_RADIUS_KM
    assert len(rows) == 1
    assert rows[0].ip_route_count == expected["ip_routes"]
    assert rows[0].geo_path_count == expected["geo_paths"]
    assert len(rows[0].clusters) == expected["clusters"]
    want = [c.representative.nodes for c in clustered[0].clusters]
    assert [c.representative.nodes for c in rows[0].clusters] == want
