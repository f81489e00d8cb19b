"""The benchmark harness still runs end to end on tiny corpora.

Timing gates stay out of the test suite; this only checks that
``perfbench/run.py --smoke`` completes, reports every declared metric and
finds the outputs correct, and that the traced run's wrappers see a call
to every entry point they measure.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines(), proc.stdout


def test_tracer_sees_every_entry_point(seven_route_corpus, tmp_path):
    # The benchmark's per-layer metrics wrap these names from outside
    # src/; a refactor that bypasses one would read 0 without failing.
    # point_to_path_distance is off the scoring path: clustering and GDI
    # query each path's prepared geometry instead.
    import traced

    traces, geodb, _ = seven_route_corpus
    inputs = ["--traces", str(traces), "--geodb", str(geodb)]
    tracer = traced.Tracer()
    tracer.install()
    try:
        codes = traced.run_commands([
            ["pipeline", *inputs, "--out", str(tmp_path / "direct"), "--jobs", "1"],
            ["cluster", *inputs, "--out", str(tmp_path / "staged"), "--jobs", "1"],
            ["gdi", "--clusters", str(tmp_path / "staged" / "clusters.json"),
             "--out", str(tmp_path / "scored"), "--jobs", "1"],
        ])
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    unseen = [name for name, *_ in traced.ENTRY_POINTS if tracer.calls[name] == 0]
    assert [name for name in unseen if name != "point_to_path_distance"] == []
    # One mgdi call per scored pair: a call that re-entered through the
    # wrapped name would be counted, and timed, twice.
    scored = sum(
        len((tmp_path / run / "pairs.csv").read_text().splitlines()) - 1 for run in ("direct", "scored")
    )
    assert scored > 0 and tracer.calls["mgdi"] == scored
