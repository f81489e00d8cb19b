import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import geodiv
from geodiv import pipeline
from geodiv.cli import main
from geodiv.synthetic import generate_corpus

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


def test_cluster_then_gdi_matches_pipeline(seven_route_corpus, tmp_path, monkeypatch):
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
    started = []

    class CountingProcess(pipeline._FORK.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pipeline._FORK, "Process", CountingProcess)
    wide = tmp_path / "wide"
    assert main(
        ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(wide), "--jobs", "5"]
    ) == 0
    assert len(started) == 1
    for name in REPORT_FILES:
        assert (wide / name).read_bytes() == (direct / name).read_bytes()
    monkeypatch.undo()

    # Many pairs, so that --jobs 2 and 3 really stripe the pairs; at 3 the
    # stripes are uneven. Run as subprocesses to compare stderr.
    corpus = generate_corpus(n_pairs=40, seed=11)
    traces, geodb = tmp_path / "many.jsonl", tmp_path / "many.csv"
    corpus.write(traces, geodb)
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
    assert b"exceeds MGDI" in runs[0][2][0]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def _cli(argv):
    src = str(Path(geodiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "geodiv.cli", *argv], capture_output=True, env=env, timeout=120
    )


def test_warnings_are_identical_for_any_jobs(tmp_path):
    # Enough pairs over the MGDI ceiling that workers would interleave them.
    corpus = generate_corpus(n_pairs=120, seed=11)
    traces, geodb = tmp_path / "traces.jsonl", tmp_path / "geodb.csv"
    corpus.write(traces, geodb)
    runs = [
        _cli(["pipeline", "--traces", str(traces), "--geodb", str(geodb),
              "--out", str(tmp_path / f"out{i}"), "--jobs", jobs])
        for i, jobs in enumerate(("1", "2", "2"))
    ]
    assert [run.returncode for run in runs] == [0, 0, 0]
    warnings = runs[0].stderr.decode().splitlines()
    assert len(warnings) > 5
    assert all("exceeds MGDI" in line for line in warnings)
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
        ("pipeline", ["--jobs", "0"], None, "error: --jobs must be a positive integer, got 0\n"),
        ("cluster", ["--jobs", "-2"], None, "error: --jobs must be a positive integer, got -2\n"),
        ("gdi", ["--jobs", "0"], None, "error: --jobs must be a positive integer, got 0\n"),
    ],
    ids=[
        "threshold", "grid-steps", "radius", "gdi-grid-steps", "file-radius", "file-route-count",
        "jobs-zero", "cluster-jobs-negative", "gdi-jobs-zero",
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


_GOOD_TRACE = '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1"]}\n'


class _Overdue(BaseException):
    """Not an ``Exception`` (nor an ``OSError``), so no handler on the way
    out of a blocked call swallows it."""


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a call that blocks for longer than ``seconds`` instead of
    hanging, and end any child process it leaves behind."""

    def expire(signum, frame):
        raise _Overdue(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        left = multiprocessing.active_children()
        for child in left:
            child.kill()
            child.join()
        assert left == []


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
    # A text read decodes 8 KiB blocks at a time, so in the "past-8k" cases
    # the bad byte is met before the lines ahead of it are parsed.
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
