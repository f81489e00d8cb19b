"""The corpus generator with planted truth (``perfbench/corpus.py``), as
the tests use it: deterministic per seed, topped up to a line count on
request, and recovered exactly by the pipeline on both template pools."""

from corpus import CorpusSpec, build_corpus

from geodiv import group_by_pair, run_pipeline
from oracles import parse_trace_line

# 25 and 50 pairs in the roadmap's mixes: 40/20/40 single-route,
# single-geo-path and scored pairs; 35/40/25 of the scored ones with 1, 2
# and 3 clusters.
SPEC_25 = CorpusSpec("small", {1: 4, 2: 4, 3: 2}, single_route=10, single_geopath=5)
SPEC_50 = CorpusSpec("small", {1: 7, 2: 8, 3: 5}, single_route=20, single_geopath=10)


def _route_sets(corpus):
    return group_by_pair(parse_trace_line(line) for line in corpus.trace_lines)


def test_generation_is_deterministic(small_pool):
    a = build_corpus(SPEC_25, 5, small_pool)
    b = build_corpus(SPEC_25, 5, small_pool)
    assert a.trace_lines == b.trace_lines
    assert a.geodb_lines == b.geodb_lines
    assert a.pairs == b.pairs
    assert a.summary == b.summary
    c = build_corpus(SPEC_25, 6, small_pool)
    assert c.trace_lines != a.trace_lines


def test_min_lines_mode(small_pool):
    natural = build_corpus(SPEC_25, 1, small_pool)
    assert len(natural.trace_lines) < 400
    spec = CorpusSpec("small", SPEC_25.scored, SPEC_25.single_route, SPEC_25.single_geopath, min_lines=400)
    corpus = build_corpus(spec, 1, small_pool)
    assert len(corpus.trace_lines) == 400
    # Only repeats of existing routes are added.
    assert corpus.geodb_lines == natural.geodb_lines
    assert _route_sets(corpus) == _route_sets(natural)


def _assert_recovered(corpus, traces, geodb):
    reports, stats = run_pipeline(traces, geodb)
    assert stats.input_pairs == corpus.summary["total_pairs"]
    assert stats.removed_single_ip_route == corpus.summary["pairs_removed_stage1"]
    assert stats.removed_single_geo_path == corpus.summary["pairs_removed_stage2"]
    assert len(reports) == corpus.summary["pairs_scored"]
    for report in reports:
        truth = corpus.pairs[(report.src, report.dst)]
        assert report.ip_route_count == truth["ip_routes"]
        assert report.geo_path_count == truth["geo_paths"]
        assert report.cluster_count == truth["clusters"]


def test_pipeline_recovers_planted_structure(small_pool, tmp_path):
    corpus = build_corpus(SPEC_50, 77, small_pool)
    _assert_recovered(corpus, *corpus.write(tmp_path))


def _crosses_antimeridian(template) -> bool:
    return any(
        abs(a[1] - b[1]) > 180.0
        for corridor in template.corridors
        for variant in corridor
        for a, b in zip(variant, variant[1:])
    )


def test_pipeline_recovers_many_clusters_across_the_antimeridian(many_pool, tmp_path):
    # The benchmark's many-clusters mix: 4-7 clusters per scored pair.
    corpus = build_corpus(CorpusSpec("many", {4: 10, 5: 3, 6: 1, 7: 1}), 77, many_pool)
    templates = {t.id: t for pool in many_pool.values() for t in pool}
    drawn = [templates[truth["template"]] for truth in corpus.pairs.values()]
    assert {t.clusters for t in drawn} == {4, 5, 6, 7}
    assert any(_crosses_antimeridian(t) for t in drawn)
    _assert_recovered(corpus, *corpus.write(tmp_path))
