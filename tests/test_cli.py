import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from corpus import CorpusSpec, build_corpus
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geodiv
from geodiv import cli, pipeline
from geodiv.cli import main
from geodiv.traces import _MAX_NESTING

REPORT_FILES = ("report.json", "pairs.csv", "compression_ecdf.csv", "gdi_ratio_ecdf.csv")


def test_pipeline_subcommand(seven_route_corpus, tmp_path, capsys):
    traces, geodb, expected = seven_route_corpus
    out = tmp_path / "out"
    rc = main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(out), "--jobs", "1"]
    )
    assert rc == 0
    for name in REPORT_FILES:
        assert (out / name).exists()
    assert "1 scored" in capsys.readouterr().out
    row = (out / "pairs.csv").read_text().splitlines()[1].split(",")
    assert row[2] == str(expected["ip_routes"])
    assert row[4] == str(expected["clusters"])
    assert row[5] == "2.333333"


def test_pipeline_threshold_flag_changes_clustering(seven_route_corpus, tmp_path):
    traces, geodb, _ = seven_route_corpus
    out = tmp_path / "wide"
    rc = main(
        [
            "pipeline",
            "--traces", str(traces),
            "--geodb", str(geodb),
            "--out", str(out),
            "--threshold-km", "5000",
            "--jobs", "1",
        ]
    )
    assert rc == 0
    row = (out / "pairs.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "1"  # everything merges at a continental threshold


def test_cluster_then_gdi_matches_pipeline(seven_route_corpus, small_pool, tmp_path, monkeypatch):
    traces, geodb, _ = seven_route_corpus
    direct = tmp_path / "direct"
    staged = tmp_path / "staged"
    assert main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(direct), "--jobs", "1"]
    ) == 0
    assert main(
        ["cluster", "--traces", str(traces), "--geodb", str(geodb), "--out", str(staged), "--jobs", "1"]
    ) == 0
    clusters_file = staged / "clusters.json"
    assert clusters_file.exists()
    payload = json.loads(clusters_file.read_text())
    assert len(payload["pairs"]) == 1
    assert len(payload["pairs"][0]["clusters"]) == 3
    assert main(
        ["gdi", "--clusters", str(clusters_file), "--out", str(staged / "scored"), "--jobs", "1"]
    ) == 0
    for name in REPORT_FILES:
        assert (direct / name).read_bytes() == (staged / "scored" / name).read_bytes()

    # One pair at --jobs 5: the reader is the only child; the pair is
    # scored in this process.
    forks = _count_forks(monkeypatch)
    wide = tmp_path / "wide"
    assert main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(wide), "--jobs", "5"]
    ) == 0
    assert len(forks) == 1
    for name in REPORT_FILES:
        assert (wide / name).read_bytes() == (direct / name).read_bytes()
    monkeypatch.undo()

    # Many pairs, so that --jobs 2 and 3 really stripe the pairs; at 3 the
    # stripes are uneven. Run as subprocesses to compare stderr.
    spec = CorpusSpec("small", {1: 6, 2: 6, 3: 4}, single_route=16, single_geopath=8)
    traces, geodb = build_corpus(spec, 11, small_pool).write(tmp_path)
    inputs = ["--traces", str(traces), "--geodb", str(geodb)]
    runs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        pipeline_run = _cli(["pipeline", *inputs, "--out", str(out / "direct"), "--jobs", jobs])
        cluster_run = _cli(["cluster", *inputs, "--out", str(out / "staged"), "--jobs", jobs])
        clusters = (out / "staged" / "clusters.json").read_bytes()
        scored = json.loads(clusters)["pairs"]
        assert len(scored) > 2 * int(jobs) and len(scored) % 3 != 0
        gdi_run = _cli(
            ["gdi", "--clusters", str(out / "staged" / "clusters.json"), "--out", str(out / "scored"),
             "--jobs", jobs]
        )
        assert [r.returncode for r in (pipeline_run, cluster_run, gdi_run)] == [0, 0, 0]
        for name in REPORT_FILES:
            assert (out / "direct" / name).read_bytes() == (out / "scored" / name).read_bytes()
        runs.append((
            [(out / "scored" / name).read_bytes() for name in REPORT_FILES],
            clusters,
            [r.stderr for r in (pipeline_run, cluster_run, gdi_run)],
        ))
    assert _WARNING.fullmatch(runs[0][2][0].decode())
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_gdi_scores_at_the_radius_its_file_records(seven_route_corpus, tmp_path):
    # Clustering at 7000 km records that radius, and gdi scores at it, so
    # the staged run still matches the one-pass pipeline.
    traces, geodb, _ = seven_route_corpus
    inputs = ["--traces", str(traces), "--geodb", str(geodb), "--jobs", "1"]
    at_7000 = [*inputs, "--earth-radius-km", "7000"]
    assert main(["pipeline", *at_7000, "--out", str(tmp_path / "direct")]) == 0
    assert main(["cluster", *at_7000, "--out", str(tmp_path / "staged")]) == 0
    clusters = tmp_path / "staged" / "clusters.json"
    assert json.loads(clusters.read_text())["earth_radius_km"] == 7000.0
    assert main(["gdi", "--clusters", str(clusters), "--out", str(tmp_path / "scored"), "--jobs", "1"]) == 0
    assert main(["pipeline", *inputs, "--out", str(tmp_path / "default")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "direct" / name).read_bytes() == (tmp_path / "scored" / name).read_bytes()
    assert (tmp_path / "direct" / "pairs.csv").read_bytes() != (tmp_path / "default" / "pairs.csv").read_bytes()


def test_a_power_of_two_radius_scales_the_scores_and_nothing_else(seven_route_corpus, tmp_path, capsys):
    # Distances, GDI and MGDI all scale exactly with the radius (MGDI sees
    # only its triangle's shape), so radius and threshold at 2**-600 of
    # the defaults give the same cluster counts, ratios, ECDFs and
    # warnings, and scores at exactly 2**-600 of the default ones.
    traces, geodb, _ = seven_route_corpus
    inputs = ["--traces", str(traces), "--geodb", str(geodb), "--jobs", "1"]

    def outcome(out, stderr):
        rows = [line.split(",") for line in (out / "pairs.csv").read_text().splitlines()[1:]]
        ecdfs = [(out / name).read_bytes() for name in ("compression_ecdf.csv", "gdi_ratio_ecdf.csv")]
        scores = [(p["gdi_km"], p["mgdi_km"]) for p in json.loads((out / "report.json").read_text())["pairs"]]
        return ([(row[4], row[8]) for row in rows], ecdfs, stderr), scores

    def run(out, flags):
        assert main(["pipeline", *inputs, *flags, "--out", str(out / "direct")]) == 0
        direct = outcome(out / "direct", capsys.readouterr().err)
        assert main(["cluster", *inputs, *flags, "--out", str(out / "staged")]) == 0
        clusters = str(out / "staged" / "clusters.json")
        assert main(["gdi", "--clusters", clusters, "--out", str(out / "scored"), "--jobs", "1"]) == 0
        return [direct, outcome(out / "scored", capsys.readouterr().err)]

    tiny = ["--earth-radius-km", repr(math.ldexp(6371.0, -600)), "--threshold-km", repr(math.ldexp(50.0, -600))]
    for (kept, scores), (tiny_kept, tiny_scores) in zip(run(tmp_path / "default", []), run(tmp_path / "tiny", tiny)):
        assert tiny_kept == kept
        assert tiny_scores == [(math.ldexp(g, -600), math.ldexp(m, -600)) for g, m in scores]
        assert all(m > 0.0 for _, m in tiny_scores)


# The one line a report writes when some pair's GDI exceeds its MGDI.
_WARNING = re.compile(
    r"WARNING: (\d+) of (\d+) scored pairs have GDI above MGDI \(gdi_over_mgdi > 1 in pairs\.csv\)\n"
)


def _count_forks(monkeypatch):
    """A list that gains an entry each time this process forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _cli(argv):
    src = str(Path(geodiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "geodiv.cli", *argv], capture_output=True, env=env, timeout=120
    )


# Which of the heavy modules importing the CLI loads beyond a bare
# interpreter, then which ones are loaded after --help and a --jobs 1 run
# of each command, then after a --jobs 2 pipeline run, as one JSON list per
# line. The script's arguments are the trace file, the snapshot and an
# output directory.
_IMPORT_DIET = """
import contextlib, io, json, sys
before = set(sys.modules)
from geodiv.cli import main
heavy = {"dataclasses", "inspect", "multiprocessing", "pickle", "socket"}
loaded = lambda: print(json.dumps(sorted(heavy & (set(sys.modules) - before))))
loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["pipeline", "--help"])
traces, geodb, out = sys.argv[1:]
inputs = ["--traces", traces, "--geodb", geodb, "--jobs", "1"]
assert main(["pipeline", *inputs, "--out", out + "/direct"]) == 0
assert main(["cluster", *inputs, "--out", out + "/staged"]) == 0
assert main(["gdi", "--clusters", out + "/staged/clusters.json", "--out", out + "/scored", "--jobs", "1"]) == 0
loaded()
assert main(["pipeline", "--traces", traces, "--geodb", geodb, "--jobs", "2", "--out", out + "/forked"]) == 0
loaded()
"""


def test_a_launch_imports_only_what_a_run_uses(seven_route_corpus, tmp_path):
    # Module sets only, no timing: importing the CLI loads neither
    # dataclasses (nor the inspect it pulls in), nor multiprocessing, nor
    # pickle, nor socket; --help and a --jobs 1 run of each command fork
    # nothing, so they load none of them either; a --jobs 2 run loads
    # pickle for its pipes and still no multiprocessing.
    traces, geodb, _ = seven_route_corpus
    src = str(Path(geodiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_DIET, str(traces), str(geodb), str(tmp_path)],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert run.returncode == 0, run.stderr
    loaded = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("[")]
    assert loaded == [[], [], ["pickle"]]
    for name in ("scored", "forked"):
        assert (tmp_path / name / "report.json").read_bytes() == (tmp_path / "direct" / "report.json").read_bytes()


def test_warnings_are_identical_for_any_jobs(small_pool, tmp_path):
    # Enough pairs over the MGDI ceiling that workers would interleave them.
    spec = CorpusSpec("small", {1: 17, 2: 19, 3: 12}, single_route=48, single_geopath=24)
    traces, geodb = build_corpus(spec, 11, small_pool).write(tmp_path)
    runs = [
        _cli(["pipeline", "--traces", str(traces), "--geodb", str(geodb),
              "--out", str(tmp_path / f"out{i}"), "--jobs", jobs])
        for i, jobs in enumerate(("1", "2", "2"))
    ]
    assert [run.returncode for run in runs] == [0, 0, 0]
    # One line that counts the pairs over the ceiling, not one per pair.
    warning = _WARNING.fullmatch(runs[0].stderr.decode())
    rows = [line.split(",") for line in (tmp_path / "out0" / "pairs.csv").read_text().splitlines()[1:]]
    assert int(warning[1]) == sum(float(row[-1]) > 1.0 for row in rows) > 5
    assert int(warning[2]) == len(rows)
    assert runs[1].stderr == runs[0].stderr
    assert runs[2].stderr == runs[0].stderr


def test_missing_traces_file_is_input_error(tmp_path, capsys):
    geodb = tmp_path / "geodb.csv"
    geodb.write_text("10.0.0.0/8,0.0,0.0\n", encoding="utf-8")
    rc = main(
        [
            "pipeline",
            "--traces", str(tmp_path / "missing.jsonl"),
            "--geodb", str(geodb),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_trace_line_reports_location(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    geodb = tmp_path / "geodb.csv"
    traces.write_text('{"src":"10.0.0.1","dst":"10.9.0.1","hops":[]}\n{broken\n', encoding="utf-8")
    geodb.write_text("10.0.0.0/8,0.0,0.0\n", encoding="utf-8")
    rc = main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "traces.jsonl:2" in err


def test_malformed_geodb_is_input_error(seven_route_corpus, tmp_path, capsys):
    traces, _, _ = seven_route_corpus
    geodb = tmp_path / "bad.csv"
    geodb.write_text("10.0.0.0/33,0,0\n", encoding="utf-8")
    rc = main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    )
    assert rc == 1


def test_malformed_clusters_file_is_input_error(tmp_path, capsys):
    clusters = tmp_path / "clusters.json"
    clusters.write_text("{\n", encoding="utf-8")
    rc = main(["gdi", "--clusters", str(clusters), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_unexpected_failure_is_internal_error(seven_route_corpus, tmp_path, monkeypatch, capsys):
    traces, geodb, _ = seven_route_corpus
    import geodiv.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("surprise")

    monkeypatch.setattr(cli_module, "run_pipeline", boom)
    rc = main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, edit, named",
    [
        ("pipeline", ["--threshold-km", "-1"], None, "--threshold-km"),
        ("pipeline", ["--mgdi-grid-steps", "0"], None, "--mgdi-grid-steps"),
        ("cluster", ["--earth-radius-km", "-5"], None, "--earth-radius-km"),
        ("gdi", ["--mgdi-grid-steps", "0"], None, "--mgdi-grid-steps"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=-5), "clusters.json"),
        ("gdi", [], lambda payload: payload["pairs"][0].update(ip_route_count=0), "clusters.json"),
        ("pipeline", ["--threshold-km", "nan"], None, "--threshold-km"),
        ("pipeline", ["--earth-radius-km", "nan"], None, "--earth-radius-km"),
        ("pipeline", ["--earth-radius-km", "1e200"], None, "--earth-radius-km"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=1e200), "clusters.json"),
        ("pipeline", ["--jobs", "0"], None, "error: --jobs must be a positive integer, got 0\n"),
        ("cluster", ["--jobs", "-2"], None, "error: --jobs must be a positive integer, got -2\n"),
        ("gdi", ["--jobs", "0"], None, "error: --jobs must be a positive integer, got 0\n"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=True), "clusters.json"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=False), "clusters.json"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=""), "clusters.json"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km=[]), "clusters.json"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km={}), "clusters.json"),
        ("gdi", [], lambda payload: payload.update(earth_radius_km="6371"), "clusters.json"),
        ("pipeline", ["--mgdi-grid-steps", "1002"], None, "error: --mgdi-grid-steps must be at most 1001, got 1002\n"),
        ("gdi", ["--mgdi-grid-steps", "1000000000"], None,
         "error: --mgdi-grid-steps must be at most 1001, got 1000000000\n"),
        ("cluster", ["--threshold-km", "inf"], None, "error: --threshold-km must be positive and finite, got inf\n"),
    ],
    ids=[
        "threshold", "grid-steps", "radius", "gdi-grid-steps", "file-radius", "file-route-count",
        "threshold-nan", "radius-nan", "radius-huge", "file-radius-huge",
        "jobs-zero", "cluster-jobs-negative", "gdi-jobs-zero", "file-radius-true", "file-radius-false",
        "file-radius-empty-string", "file-radius-empty-array", "file-radius-empty-object", "file-radius-string",
        "grid-steps-huge", "gdi-grid-steps-huge", "threshold-inf",
    ],
)
def test_bad_setting_is_input_error(seven_route_corpus, tmp_path, capsys, command, flags, edit, named):
    traces, geodb, _ = seven_route_corpus
    inputs = ["--traces", str(traces), "--geodb", str(geodb)]
    if command == "gdi":
        staged = tmp_path / "staged"
        assert main(["cluster", *inputs, "--out", str(staged), "--jobs", "1"]) == 0
        clusters = staged / "clusters.json"
        payload = json.loads(clusters.read_text())
        if edit is not None:
            edit(payload)
        clusters.write_text(json.dumps(payload), encoding="utf-8")
        inputs = ["--clusters", str(clusters)]
    capsys.readouterr()
    rc = main([command, *inputs, "--out", str(tmp_path / "out"), "--jobs", "1", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_grid_steps_are_checked_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    for inputs in (["pipeline", "--traces", missing, "--geodb", missing], ["gdi", "--clusters", missing]):
        assert main([*inputs, "--out", str(tmp_path / "out"), "--jobs", "1", "--mgdi-grid-steps", "1002"]) == 1
        assert capsys.readouterr().err == "error: --mgdi-grid-steps must be at most 1001, got 1002\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pipeline", "--jobs", "abc"], "argument --jobs: invalid int value: 'abc'"),
        (["gdi", "--mgdi-grid-steps", "1.5"], "argument --mgdi-grid-steps: invalid int value: '1.5'"),
        (["pipeline", "--geodb", "geodb.csv", "--out", "out"], "the following arguments are required: --traces"),
        ([], "the following arguments are required: command"),
        # gdi scores at the radius its clusters file records.
        (["gdi", "--clusters", "clusters.json", "--out", "out", "--earth-radius-km", "7000"],
         "unrecognized arguments: --earth-radius-km 7000"),
    ],
    ids=["jobs-not-int", "grid-steps-not-int", "missing-traces", "missing-subcommand", "gdi-radius"],
)
def test_usage_error_is_input_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: geodiv")
    assert err.endswith(f"error: {message}\n")


_GOOD_TRACE = '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1"]}\n'


class _Overdue(BaseException):
    """Not an ``Exception`` (nor an ``OSError``), so no handler on the way
    out of a blocked call swallows it."""


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a call that blocks for longer than ``seconds`` instead of
    hanging, and fail on, then end, any child process it leaves unreaped."""

    def expire(signum, frame):
        raise _Overdue(f"still running after {seconds} s")

    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    os.fork = recording_fork
    try:
        yield
    finally:
        os.fork = fork
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        left = []
        for pid in forked:
            with contextlib.suppress(ChildProcessError):  # raised only for a reaped child
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                left.append(pid)
        assert left == []
        _assert_no_child()


def _assert_no_child():
    """This process has no child, running or exited, left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_both_ways(capsys, argv):
    """stderr of ``argv`` at --jobs 1 and at --jobs 2, each exiting 1 and
    leaving no child process behind."""
    errors = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        with _deadline(60):
            assert main([*argv, "--jobs", jobs]) == 1
        errors.append(capsys.readouterr().err)
    return errors


@pytest.mark.parametrize(
    "traces_text, geodb_text, located",
    [
        (_GOOD_TRACE + "{broken\n", "10.0.0.0/8,0,0\n", "traces.jsonl:2: invalid JSON"),
        (_GOOD_TRACE + '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.999"]}\n', "10.0.0.0/8,0,0\n",
         "traces.jsonl:2: field 'hops[0]'"),
        (None, "10.0.0.0/8,0,0\n", "No such file or directory"),
        (_GOOD_TRACE, "10.0.0.0/8,0,0\n10.0.0.0/33,0,0\n", "geodb.csv:2: invalid CIDR"),
        (_GOOD_TRACE + "{broken\n", "10.0.0.0/33,0,0\n", "traces.jsonl:2: invalid JSON"),
        (None, None, "missing.jsonl"),
    ],
    ids=["trace-line", "hop-address", "missing-traces", "geodb", "both-bad", "both-missing"],
)
@pytest.mark.parametrize("command", ["pipeline", "cluster"])
def test_input_errors_are_the_same_with_a_reader(tmp_path, capsys, command, traces_text, geodb_text, located):
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    if traces_text is None:
        traces = tmp_path / "missing.jsonl"
    else:
        traces.write_text(traces_text, encoding="utf-8")
    if geodb_text is None:
        geodb = tmp_path / "missing.csv"
    else:
        geodb.write_text(geodb_text, encoding="utf-8")
    serial, parallel = _run_both_ways(
        capsys, [command, "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    )
    assert serial == parallel
    assert serial.startswith("error: ") and located in serial


@pytest.mark.parametrize(
    "bad_file, good_lines",
    [("traces.jsonl", 1), ("traces.jsonl", 300), ("geodb.csv", 1), ("geodb.csv", 1000), ("clusters.json", None)],
    ids=["traces", "traces-past-8k", "geodb", "geodb-past-8k", "clusters"],
)
def test_non_utf8_input_is_a_located_input_error(seven_route_corpus, tmp_path, capsys, bad_file, good_lines):
    work = tmp_path / "work"
    work.mkdir()
    traces, geodb = work / "traces.jsonl", work / "geodb.csv"
    traces.write_text(_GOOD_TRACE * (good_lines or 1), encoding="utf-8")
    geodb.write_text("".join(f"10.{i >> 8}.{i & 255}.0/24,0,0\n" for i in range(good_lines or 1)))
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb)]
    if bad_file == "traces.jsonl":
        traces.write_bytes(traces.read_bytes() + _GOOD_TRACE.replace("10.1.0.1", "10.1.0.\xff").encode("latin-1"))
    elif bad_file == "geodb.csv":
        geodb.write_bytes(geodb.read_bytes() + b"10.250.0.0/16,1,1\xff\n")
    else:
        seven_traces, seven_geodb, _ = seven_route_corpus
        assert main(["cluster", "--traces", str(seven_traces), "--geodb", str(seven_geodb),
                     "--out", str(work), "--jobs", "1"]) == 0
        clusters = work / "clusters.json"
        data = clusters.read_bytes().replace(b'"src": "', b'"src": "\xff', 1)
        clusters.write_bytes(data)
        good_lines = data[: data.index(b"\xff")].count(b"\n")
        argv = ["gdi", "--clusters", str(clusters)]
    serial, parallel = _run_both_ways(capsys, [*argv, "--out", str(tmp_path / "out")])
    assert serial == parallel
    assert serial.startswith(f"error: {work / bad_file}:{good_lines + 1}: not valid UTF-8 at byte offset ")
    assert serial.endswith(" (0xff: invalid start byte)\n")


def test_a_bad_byte_in_a_lone_cr_clusters_file_is_located(seven_route_corpus, tmp_path, capsys):
    # Lines end at a lone \r too, so the bad byte is on line 3, not 1.
    seven_traces, seven_geodb, _ = seven_route_corpus
    assert main(["cluster", "--traces", str(seven_traces), "--geodb", str(seven_geodb),
                 "--out", str(tmp_path), "--jobs", "1"]) == 0
    clusters = tmp_path / "clusters.json"
    # The CLI writes one line of JSON; staged over several lines, the
    # bad byte has a line of its own to be found on.
    written = clusters.read_bytes()
    assert written.count(b"\n") == 1 and written.endswith(b"\n")
    lines = (json.dumps(json.loads(written), indent=2) + "\n").encode().split(b"\n")
    lines[2] = lines[2].replace(b'"', b'"\xff', 1)
    data = b"\r".join(lines)
    clusters.write_bytes(data)
    serial, parallel = _run_both_ways(capsys, ["gdi", "--clusters", str(clusters), "--out", str(tmp_path / "out")])
    offset = data.index(b"\xff")
    assert serial == parallel
    assert serial.endswith(f"error: {clusters}:3: not valid UTF-8 at byte offset {offset} (0xff: invalid start byte)\n")


# Runs the CLI on its arguments after an audit hook that writes the path
# of each file opened, in this process or a forked one, to stderr.
_COUNT_OPENS = """
import os, sys
sys.addaudithook(lambda event, args: event == "open" and os.write(2, f"opened {args[0]}\\n".encode()))
from geodiv.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad_file", ["traces.jsonl", "geodb.csv", "clusters.json"])
def test_each_input_file_is_opened_once(seven_route_corpus, tmp_path, bad_file, jobs):
    # A bad byte past the first 8 KiB is located from the one read of its
    # file, by whichever process reads it; no file is opened again.
    work = tmp_path / "work"
    work.mkdir()
    traces, geodb, clusters = work / "traces.jsonl", work / "geodb.csv", work / "clusters.json"
    traces.write_text(_GOOD_TRACE * 300, encoding="utf-8")
    geodb.write_text("".join(f"10.{i >> 8}.{i & 255}.0/24,0,0\n" for i in range(1000)), encoding="utf-8")
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb)]
    if bad_file == "clusters.json":
        seven_traces, seven_geodb, _ = seven_route_corpus
        assert main(["cluster", "--traces", str(seven_traces), "--geodb", str(seven_geodb),
                     "--out", str(work), "--jobs", "1"]) == 0
        clusters.write_bytes(b"\n" * 9000 + clusters.read_bytes().replace(b'"src": "', b'"src": "\xff', 1))
        argv = ["gdi", "--clusters", str(clusters)]
    else:
        bad = work / bad_file
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
    src = str(Path(geodiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-c", _COUNT_OPENS, *argv, "--out", str(tmp_path / "out"), "--jobs", jobs],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert run.returncode == 1, run.stderr
    opened = [line.removeprefix("opened ") for line in run.stderr.splitlines() if line.startswith("opened ")]
    assert opened.count(str(work / bad_file)) == 1
    assert all(opened.count(str(path)) <= 1 for path in (traces, geodb, clusters))
    assert f"error: {work / bad_file}:" in run.stderr and " not valid UTF-8 at byte offset " in run.stderr


@pytest.mark.parametrize("marked", ["traces.jsonl", "geodb.csv", "clusters.json"])
def test_a_leading_byte_order_mark_is_accepted(seven_route_corpus, tmp_path, marked):
    """A file saved with a UTF-8 byte order mark, as spreadsheet tools
    write one, gives the same reports as the file without it."""
    seven_traces, seven_geodb, _ = seven_route_corpus
    for side in ("plain", "marked"):
        work = tmp_path / side
        work.mkdir()
        traces, geodb = work / "traces.jsonl", work / "geodb.csv"
        traces.write_bytes(seven_traces.read_bytes())
        geodb.write_bytes(seven_geodb.read_bytes())
        inputs = ["--traces", str(traces), "--geodb", str(geodb), "--jobs", "1"]
        assert main(["cluster", *inputs, "--out", str(work)]) == 0
        clusters = work / "clusters.json"
        if side == "marked":
            (work / marked).write_bytes(b"\xef\xbb\xbf" + (work / marked).read_bytes())
        assert main(["pipeline", *inputs, "--out", str(work / "pipeline")]) == 0
        assert main(["gdi", "--clusters", str(clusters), "--out", str(work / "gdi"), "--jobs", "1"]) == 0
    for name in REPORT_FILES:
        for command in ("pipeline", "gdi"):
            plain = (tmp_path / "plain" / command / name).read_bytes()
            assert (tmp_path / "marked" / command / name).read_bytes() == plain


_TOO_DEEP = "[" * 1000 + "]" * 1000
_FIELD_PAST_CSV_LIMIT = "0" * 140_000  # the csv module's limit is 131,072 characters
_CSV_LIMIT_REASON = "malformed CSV: field larger than field limit"


@pytest.mark.parametrize(
    "bad_file, bad, reason",
    [
        ("traces.jsonl", _TOO_DEEP, "invalid JSON: nested too deeply"),
        ("traces.jsonl", '{"src": ' + "1" * 5000 + "}", "invalid JSON"),
        ("geodb.csv", "10.1.0.0/16,0," + _FIELD_PAST_CSV_LIMIT, _CSV_LIMIT_REASON),
        ("geodb.csv", f'10.1.0.0/16,0,"{_FIELD_PAST_CSV_LIMIT}"', _CSV_LIMIT_REASON),
        ("clusters.json", _TOO_DEEP, "invalid JSON: nested too deeply"),
        ("clusters.json", ("ip_route_count", "1e400"), "malformed pair entry"),
        ("clusters.json", ("geo_path_count", "1e400"), "malformed pair entry"),
        ("clusters.json", ("input_pairs", "1e400"), "malformed filter_stats"),
        ("clusters.json", ("removed_single_geo_path", "1e400"), "malformed filter_stats"),
        ("clusters.json", ("ip_route_count", "1" + "0" * 400), "malformed pair entry"),
        ("clusters.json", ("ip_route_count", "1" * 5000), "invalid JSON"),
        ("clusters.json", ("ip_route_count", "true"), "malformed pair entry: expected a count, got true"),
        ("clusters.json", ("geo_path_count", "false"), "malformed pair entry: expected a count, got false"),
        ("clusters.json", ("input_pairs", "true"), "malformed filter_stats: expected a count, got true"),
        ("clusters.json", ("ip_route_count", "7.9"), "malformed pair entry: expected a count, got 7.9"),
        ("clusters.json", ("ip_route_count", "7.0"), "malformed pair entry: expected a count, got 7.0"),
        ("clusters.json", ("geo_path_count", '"5"'), 'malformed pair entry: expected a count, got "5"'),
        ("clusters.json", ("geo_path_count", "[5]"), "malformed pair entry: expected a count, got an array"),
        ("clusters.json", ("input_pairs", "3.5"), "malformed filter_stats: expected a count, got 3.5"),
        ("clusters.json", ("removed_single_ip_route", '"0"'), 'malformed filter_stats: expected a count, got "0"'),
        ("clusters.json", ("ip_route_count", "4"),
         "pair ('172.20.0.1', '172.20.0.2'): expected 3 clusters <= geo_path_count 5 <= ip_route_count 4"),
        ("clusters.json", ("geo_path_count", "2"),
         "pair ('172.20.0.1', '172.20.0.2'): expected 3 clusters <= geo_path_count 2 <= ip_route_count 7"),
        ("clusters.json", ("ip_route_count", "-7"), "malformed pair entry: expected a count, got -7"),
        ("clusters.json", ("input_pairs", "-5"), "malformed filter_stats: expected a count, got -5"),
        ("clusters.json", ("removed_single_geo_path", "-1"), "malformed filter_stats: expected a count, got -1"),
        ("clusters.json", ("input_pairs", "2"), "filter_stats leave 2 of 2 input pairs, but the file lists 1\n"),
        ("clusters.json", ("removed_single_ip_route", "1"),
         "filter_stats leave 0 of 1 input pairs, but the file lists 1\n"),
    ],
    ids=[
        "trace-too-deep", "trace-long-integer", "geodb-long-field", "geodb-long-quoted-field",
        "clusters-too-deep", "clusters-infinite-route-count", "clusters-infinite-geo-path-count",
        "clusters-infinite-input-pairs", "clusters-infinite-removed", "clusters-route-count-past-float",
        "clusters-long-integer", "clusters-true-route-count", "clusters-false-geo-path-count",
        "clusters-true-input-pairs", "clusters-fractional-route-count", "clusters-float-route-count",
        "clusters-string-geo-path-count", "clusters-array-geo-path-count", "clusters-fractional-input-pairs",
        "clusters-string-removed", "clusters-fewer-routes-than-geo-paths", "clusters-fewer-geo-paths-than-clusters",
        "clusters-negative-route-count", "clusters-negative-input-pairs", "clusters-negative-removed",
        "clusters-stats-leave-more-pairs", "clusters-stats-leave-fewer-pairs",
    ],
)
def test_input_past_parser_limits_is_a_located_input_error(seven_route_corpus, tmp_path, capsys, bad_file, bad, reason):
    # Each of these once escaped as an internal error (exit 2). A trace or
    # snapshot gets the bad line after one good one; a clusters file is
    # replaced or gets one count replaced, and its errors have no line.
    work = tmp_path / "work"
    work.mkdir()
    traces, geodb = work / "traces.jsonl", work / "geodb.csv"
    traces.write_text(_GOOD_TRACE, encoding="utf-8")
    geodb.write_text("10.0.0.0/8,0,0\n", encoding="utf-8")
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb)]
    located = f"{work / bad_file}:2: "
    if bad_file == "clusters.json":
        seven_traces, seven_geodb, _ = seven_route_corpus
        assert main(["cluster", "--traces", str(seven_traces), "--geodb", str(seven_geodb),
                     "--out", str(work), "--jobs", "1"]) == 0
        clusters = work / "clusters.json"
        if isinstance(bad, tuple):
            key, value = bad
            text = clusters.read_text(encoding="utf-8")
            assert f'"{key}": ' in text
            bad = re.sub(f'"{key}": [0-9]+', f'"{key}": {value}', text, count=1)
        clusters.write_text(bad, encoding="utf-8")
        argv = ["gdi", "--clusters", str(clusters)]
        located = f"{clusters}: "
    else:
        path = work / bad_file
        path.write_text(path.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
    serial, parallel = _run_both_ways(capsys, [*argv, "--out", str(tmp_path / "out")])
    assert serial == parallel
    assert serial.startswith(f"error: {located}{reason}")


def test_a_pair_listed_twice_is_a_located_input_error(seven_route_corpus, tmp_path, capsys):
    # The stats agree with two pairs, so only the repeat is wrong; scoring
    # it would write the pair's row twice.
    traces, geodb, _ = seven_route_corpus
    assert main(["cluster", "--traces", str(traces), "--geodb", str(geodb),
                 "--out", str(tmp_path), "--jobs", "1"]) == 0
    clusters = tmp_path / "clusters.json"
    payload = json.loads(clusters.read_text(encoding="utf-8"))
    payload["pairs"].append(payload["pairs"][0])
    payload["filter_stats"]["input_pairs"] += 1
    clusters.write_text(json.dumps(payload), encoding="utf-8")
    serial, parallel = _run_both_ways(capsys, ["gdi", "--clusters", str(clusters), "--out", str(tmp_path / "out")])
    assert serial == parallel == f"error: {clusters}: pair ('172.20.0.1', '172.20.0.2') is listed twice\n"
    assert not (tmp_path / "out").exists()


def _first_representative(payload):
    return payload["pairs"][0]["clusters"][0]["representative"]


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda p: p["pairs"][0].update(src="evil,src\nX"),
         "field 'pairs[0].src': Expected 4 octets in 'evil,src\\nX'"),
        (lambda p: p["pairs"][0].update(src=12345), "field 'pairs[0].src' must be a string"),
        (lambda p: p["pairs"][0].update(dst="10.0.0.256"),
         "field 'pairs[0].dst': Octet 256 (> 255) not permitted in '10.0.0.256'"),
        (lambda p: _first_representative(p).__setitem__(0, [True, False]),
         "pair ('172.20.0.1', '172.20.0.2'): node must be a [lat, lon] pair of numbers"),
        (lambda p: _first_representative(p).__setitem__(0, ["45.5", "7"]),
         "pair ('172.20.0.1', '172.20.0.2'): node must be a [lat, lon] pair of numbers"),
        (lambda p: _first_representative(p).__setitem__(0, [45.5, 10**400]),
         "pair ('172.20.0.1', '172.20.0.2'): int too large to convert to float"),
    ],
    ids=["src-not-an-address", "src-not-a-string", "dst-not-an-address", "node-booleans", "node-strings",
         "node-past-float"],
)
def test_bad_clusters_file_value_is_a_located_input_error(seven_route_corpus, tmp_path, capsys, edit, reason):
    # Each of these was once scored: an address went into pairs.csv as it
    # stood, and a boolean or string node was read as a number.
    traces, geodb, _ = seven_route_corpus
    assert main(["cluster", "--traces", str(traces), "--geodb", str(geodb),
                 "--out", str(tmp_path), "--jobs", "1"]) == 0
    clusters = tmp_path / "clusters.json"
    payload = json.loads(clusters.read_text(encoding="utf-8"))
    edit(payload)
    clusters.write_text(json.dumps(payload), encoding="utf-8")
    serial, parallel = _run_both_ways(capsys, ["gdi", "--clusters", str(clusters), "--out", str(tmp_path / "out")])
    assert serial == parallel == f"error: {clusters}: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "cluster", "gdi"])
def test_jobs_above_the_bound_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command):
    # The input files do not exist, so reading one would be another error;
    # forking is replaced by a failure, so none is started.
    def no_fork(calls):
        raise AssertionError("a run started")

    monkeypatch.setattr(pipeline, "_run_forked", no_fork)
    inputs = ["--traces", "missing.jsonl", "--geodb", "missing.csv"]
    if command == "gdi":
        inputs = ["--clusters", "missing.json"]
    for jobs in (cli.MAX_JOBS + 1, 1000):
        assert main([command, *inputs, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at most {cli.MAX_JOBS}, got {jobs}\n"
    assert not (tmp_path / "out").exists()


def test_default_jobs_is_all_cores_up_to_the_bound(monkeypatch):
    # Only the parser runs; nothing is forked. The default counts the CPUs
    # the process may run on, not the machine's cores.
    argv = ["gdi", "--clusters", "clusters.json", "--out", "out"]
    monkeypatch.setattr(os, "cpu_count", lambda: 10_000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)), raising=False)
    assert cli.build_parser().parse_args(argv).jobs == cli.MAX_JOBS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert cli.build_parser().parse_args(argv).jobs == 3
    # Without an affinity mask, the core count, or 1 when it is unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.build_parser().parse_args(argv).jobs == 1


@pytest.mark.parametrize("depth", [_MAX_NESTING, _MAX_NESTING + 1, 975])
def test_trace_nesting_bound_is_the_same_for_any_jobs(tmp_path, depth):
    # The record object is one level; its ignored key holds the rest. The
    # decoder's own limit once let 975 levels through at --jobs 1 only, so
    # the CLI runs as a process of its own, with its own stack depth.
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    nested = "[" * (depth - 1) + "]" * (depth - 1)
    traces.write_text(_GOOD_TRACE + _GOOD_TRACE[:-2] + f',"x":{nested}}}\n', encoding="utf-8")
    geodb.write_text("10.0.0.0/8,0,0\n", encoding="utf-8")
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    runs = [_cli([*argv, "--jobs", jobs]) for jobs in ("1", "2")]
    outcomes = [(run.returncode, run.stderr.decode()) for run in runs]
    if depth <= _MAX_NESTING:
        assert outcomes == [(0, ""), (0, "")]
    else:
        assert outcomes == [(1, f"error: {traces}:2: invalid JSON: nested too deeply\n")] * 2


def test_bad_geodb_next_to_a_large_trace_file_fails_promptly(tmp_path, capsys):
    # Far more route sets than a pipe buffer holds: the reader is still
    # sending when the snapshot has already failed.
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    lines = [
        json.dumps({"src": f"10.0.{i >> 8}.{i & 255}", "dst": "10.9.0.1",
                    "hops": [f"10.{h}.{i >> 8}.{i & 255}" for h in range(1, 7)]})
        for i in range(6000)
    ]
    traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
    geodb.write_text("not-a-prefix,0,0\n", encoding="utf-8")
    start = time.perf_counter()
    serial, parallel = _run_both_ways(
        capsys, ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(tmp_path / "out")]
    )
    assert time.perf_counter() - start < 30.0
    assert serial == parallel
    assert "geodb.csv:1: invalid CIDR 'not-a-prefix'" in serial


# Values that have broken parsers before, or sit on a range edge.
_FUZZ_TOKENS = (
    b"", b"*", b'"*"', b'""', b"-1", b"0", b"-0.0", b"91", b"1e308", b"1e400", b"-1e400", b"NaN",
    b"Infinity", b"1" * 5000, b"null", b"true", b"[]", b"{}", b'"10.0.0.999"', b"/33", b"[" * 1000,
    b'"', b",", b"\n", b"\r", b"\x00", b"\xff",
)
_FUZZ_BUDGET_S = 15.0


def _mutate(data, edit):
    """``data`` after deleting, duplicating or replacing a run of bytes, or
    of fields (the text between commas, colons and newlines)."""
    kind, unit, position, length, replacement = edit
    if unit == "field":
        parts = re.split(rb"([,:\n])", data)
    else:
        parts = [data[i : i + 1] for i in range(len(data))]
    i = position % max(1, len(parts))
    if kind == "delete":
        del parts[i : i + length]
    elif kind == "duplicate":
        parts[i:i] = parts[i : i + length]
    else:
        parts[i : i + (1 if unit == "field" else length)] = [replacement]
    return b"".join(parts)


@pytest.fixture(scope="module")
def fuzz_inputs(small_pool, tmp_path_factory):
    """A small valid trace, snapshot and clusters file, a work directory,
    and the time by which the fuzz examples should be done."""
    deadline = time.monotonic() + _FUZZ_BUDGET_S
    work = tmp_path_factory.mktemp("fuzz")
    spec = CorpusSpec("small", {1: 1, 2: 1, 3: 1}, single_route=1, single_geopath=1)
    traces, geodb = build_corpus(spec, 3, small_pool).write(work)
    argv = ["cluster", "--traces", str(traces), "--geodb", str(geodb), "--out", str(work), "--jobs", "1"]
    with contextlib.redirect_stdout(None):
        assert main(argv) == 0
    files = {name: (work / name).read_bytes() for name in ("traces.jsonl", "geodb.csv", "clusters.json")}
    return work, files, deadline


@settings(max_examples=500, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from(["traces.jsonl", "geodb.csv", "clusters.json"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "replace"]),
            st.sampled_from(["byte", "field"]),
            st.integers(0, 1 << 16),
            st.integers(1, 8),
            st.one_of(st.sampled_from(_FUZZ_TOKENS), st.binary(max_size=2)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_inputs_never_exit_2(fuzz_inputs, target, edits):
    # Any input, however broken, exits 0 or 1. Examples past the time
    # budget return at once, so the whole run stays bounded.
    work, files, deadline = fuzz_inputs
    if time.monotonic() > deadline:
        return
    data = files[target]
    for edit in edits:
        data = _mutate(data, edit)
    for name, original in files.items():
        (work / name).write_bytes(data if name == target else original)
    if target == "clusters.json":
        argv = ["gdi", "--clusters", str(work / target)]
    else:
        argv = ["pipeline", "--traces", str(work / "traces.jsonl"), "--geodb", str(work / "geodb.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(work / "out"), "--jobs", "1"])
    assert rc in (0, 1), err.getvalue()
