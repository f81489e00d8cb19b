"""Metamorphic tests of the whole pipeline: rewrites of the trace file that
keep every pair's set of distinct marker-stripped routes leave the reports
byte-identical, at any ``--jobs``."""

from __future__ import annotations

import json
import random

import pytest
from corpus import CorpusSpec, build_corpus

from geodiv.cli import main
from test_cli import REPORT_FILES


def _permute(lines: list[str], rng: random.Random) -> list[str]:
    return rng.sample(lines, len(lines))


def _repeat(lines: list[str], rng: random.Random) -> list[str]:
    return [line for line in lines for _ in range(rng.randint(1, 3))]


def _add_unresponsive(lines: list[str], rng: random.Random) -> list[str]:
    out = []
    for line in lines:
        record = json.loads(line)
        for _ in range(rng.randint(0, 2)):
            record["hops"].insert(rng.randint(0, len(record["hops"])), "*")
        out.append(json.dumps(record))
    return out


def _reports(tmp_path, name: str, trace_lines: list[str], geodb, jobs: int) -> list[bytes]:
    traces = tmp_path / f"{name}.jsonl"
    traces.write_text("\n".join(trace_lines) + "\n", encoding="utf-8")
    out = tmp_path / f"{name}-jobs{jobs}"
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(out), "--jobs", str(jobs)]
    assert main(argv) == 0
    return [(out / file).read_bytes() for file in REPORT_FILES]


# The benchmark's two corpus shapes: 1-3 clusters per scored pair beside
# pairs that each filter stage drops, and 4-7 clusters per pair, a quarter
# of them across the antimeridian.
SPECS = {
    "mixed": CorpusSpec("small", {1: 4, 2: 5, 3: 3}, single_route=12, single_geopath=6, min_lines=300),
    "many-clusters": CorpusSpec("many", {4: 10, 5: 3, 6: 1, 7: 1}, min_lines=1000),
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def corpus(request, small_pool, many_pool, tmp_path_factory):
    """Trace lines, snapshot and ``--jobs 1`` reports of one corpus."""
    spec = SPECS[request.param]
    tmp_path = tmp_path_factory.mktemp(request.param)
    built = build_corpus(spec, 1, small_pool if spec.pool == "small" else many_pool)
    _, geodb = built.write(tmp_path)
    reports = _reports(tmp_path, "original", built.trace_lines, geodb, 1)
    assert len(reports[1].splitlines()) == 1 + len(built.pairs)
    return built.trace_lines, geodb, reports


@pytest.mark.parametrize("rewrite", [_permute, _repeat, _add_unresponsive], ids=lambda f: f.__name__[1:])
def test_reports_survive_a_trace_rewrite(rewrite, corpus, tmp_path):
    trace_lines, geodb, want = corpus
    rewritten = rewrite(trace_lines, random.Random(7))
    assert rewritten != trace_lines
    for jobs in (1, 2):
        assert _reports(tmp_path, "rewritten", rewritten, geodb, jobs) == want
