#!/usr/bin/env python3
"""Generate a synthetic trace corpus with planted structure.

Writes traces.jsonl, geodb.csv and planted.json (the corpus summary and
the ground truth per scored endpoint pair) into the output directory,
ready for `geodiv pipeline`. The corpus comes from the benchmark's
generator, perfbench/corpus.py, on its "small" template pool: 40% of the
pairs have a single IP route, 20% a single geo-path, and the rest are
scored, 35/40/25% of them with 1, 2 and 3 planted clusters.

Usage:
    python scripts/make_synthetic_corpus.py --out corpus/ --pairs 500 --seed 7
    python scripts/make_synthetic_corpus.py --out corpus/ --pairs 1500 --min-lines 11000
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from corpus import POOL_SIZES, CorpusSpec, build_corpus, template_pool  # noqa: E402

POOL_TEMPLATES = sum(POOL_SIZES["small"].values())
# At these mixes, the whole pool is scored at this many pairs.
MAX_PAIRS = POOL_TEMPLATES * 5 // 2


def spec_for_pairs(pairs: int, min_lines: int = 0) -> CorpusSpec:
    """``pairs`` endpoint pairs in the 40/20/40 and 35/40/25 mixes."""
    single_route, single_geopath = round(0.4 * pairs), round(0.2 * pairs)
    scored = pairs - single_route - single_geopath
    one, two = round(0.35 * scored), round(0.4 * scored)
    return CorpusSpec(
        "small", {1: one, 2: two, 3: scored - one - two}, single_route, single_geopath, min_lines
    )


def pairs_argument(text: str) -> int:
    pairs = int(text)
    if not 1 <= pairs <= MAX_PAIRS:
        raise argparse.ArgumentTypeError(
            f"must be 1 to {MAX_PAIRS}: the small pool has {POOL_TEMPLATES:,} templates, "
            f"{MAX_PAIRS} pairs score them all"
        )
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="DIR")
    parser.add_argument("--pairs", type=pairs_argument, required=True, help="number of endpoint pairs")
    parser.add_argument(
        "--min-lines", type=int, default=0, help="top the trace up to this many lines with repeated routes"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = build_corpus(spec_for_pairs(args.pairs, args.min_lines), args.seed, template_pool("small"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus.write(out)
    planted = {
        "summary": corpus.summary,
        "pairs": [{"src": src, "dst": dst, **truth} for (src, dst), truth in sorted(corpus.pairs.items())],
    }
    (out / "planted.json").write_text(json.dumps(planted, indent=2) + "\n", encoding="utf-8")
    print(
        f"wrote {len(corpus.trace_lines)} trace lines for {args.pairs} pairs "
        f"({len(corpus.geodb_lines) - 1} geodb rows) to {out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
