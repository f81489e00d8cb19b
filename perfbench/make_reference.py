#!/usr/bin/env python3
"""Write reference/<pool>.json: the GDI, MGDI and GDI/MGDI of every
template in a pool, as the current checkout's ``geodiv pipeline`` scores
them.

    python3 perfbench/make_reference.py small many

The references in the repository were produced once, at the commit that
added the benchmark; later commits are checked against them, so do not
regenerate them to make a check pass. The script refuses to write a
reference when any recovered route, geo-path or cluster count differs
from the planted one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from corpus import POOL_SIZES, CorpusSpec, build_corpus, template_pool
from run import HERE, ROOT, WORK, check_report, geodiv, launch


def make(pool: str) -> None:
    work = WORK / f"reference-{pool}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = build_corpus(CorpusSpec(pool, dict(POOL_SIZES[pool])), 0, template_pool(pool))
    traces, geodb = corpus.write(work)
    out = work / "out"
    argv = ["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(out), "--jobs", "2"]
    code, wall, _, _ = launch(geodiv(argv), work / "cli.log")
    if code:
        sys.exit(f"{pool}: geodiv exited {code}; see {work / 'cli.log'}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    scores = {}
    for record in report["pairs"]:
        truth = corpus.pairs.get((record["src"], record["dst"]))
        if truth is not None:
            scores[truth["template"]] = [record["gdi_km"], record["mgdi_km"], record["gdi_over_mgdi"]]
    # The same check every benchmark run makes; here it guards the planted counts.
    error = check_report(out, corpus, scores)
    if error:
        sys.exit(f"{pool}: {error}")
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    # One template per line: {"pool": ..., "commit": ..., "scores": {id: [gdi, mgdi, ratio]}}
    rows = ",\n".join(f"{json.dumps(tid)}: {json.dumps(scores[tid])}" for tid in sorted(scores))
    path = HERE / "reference" / f"{pool}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        f'{{"pool": {json.dumps(pool)}, "commit": {json.dumps(commit)}, "scores": {{\n{rows}\n}}}}\n',
        encoding="utf-8",
    )
    shutil.rmtree(work)
    print(f"{pool}: {len(scores)} templates scored in {wall:.1f} s -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(POOL_SIZES):
        make(name)
