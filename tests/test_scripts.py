"""The two scripts under ``scripts/``, run as a user runs them: the corpus
generator writes its planted truth, and the demo's report is the one
``geodiv pipeline`` writes for the same two input files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import geodiv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(argv):
    src = str(Path(geodiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


def test_make_synthetic_corpus_writes_its_planted_truth(tmp_path):
    run = _run([str(SCRIPTS / "make_synthetic_corpus.py"), "--out", str(tmp_path), "--pairs", "20", "--seed", "3"])
    assert run.returncode == 0, run.stderr.decode()
    planted = json.loads((tmp_path / "planted.json").read_text(encoding="utf-8"))
    assert planted["pairs"] and set(planted) == {"summary", "pairs"}
    assert (tmp_path / "traces.jsonl").stat().st_size > 0 and (tmp_path / "geodb.csv").stat().st_size > 0


def test_run_demo_reports_what_the_pipeline_command_does(tmp_path):
    demo = tmp_path / "demo"
    run = _run([str(SCRIPTS / "run_demo.py"), "--out", str(demo), "--pairs", "20", "--seed", "3"])
    assert run.returncode == 0, run.stderr.decode()
    cli = tmp_path / "cli"
    inputs = ["--traces", str(demo / "traces.jsonl"), "--geodb", str(demo / "geodb.csv")]
    pipeline = _run(["-m", "geodiv.cli", "pipeline", *inputs, "--out", str(cli), "--jobs", "1"])
    assert pipeline.returncode == 0, pipeline.stderr.decode()
    assert (demo / "report.json").read_bytes() == (cli / "report.json").read_bytes()
