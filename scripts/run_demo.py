#!/usr/bin/env python3
"""End-to-end demo on a small synthetic corpus.

Generates a corpus as make_synthetic_corpus.py does, runs the full
pipeline at the default 50 km threshold, emits the report files and prints
the most diverse pairs.

Usage:
    python scripts/run_demo.py --out demo_out/ [--pairs 120] [--seed 1]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from make_synthetic_corpus import build_corpus, pairs_argument, spec_for_pairs, template_pool

from geodiv import DiversityConfig, emit_report, run_pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="DIR")
    parser.add_argument("--pairs", type=pairs_argument, default=120)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threshold-km", type=float, default=50.0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = build_corpus(spec_for_pairs(args.pairs), args.seed, template_pool("small"))
    traces, geodb = corpus.write(out)

    cfg = DiversityConfig(threshold_km=args.threshold_km)
    reports, stats = run_pipeline(traces, geodb, cfg, jobs=args.jobs)
    emit_report(reports, stats, out)

    print(
        f"pairs: {stats.input_pairs} total / {len(reports)} scored "
        f"(removed: {stats.removed_single_ip_route} single-route, "
        f"{stats.removed_single_geo_path} single-geo-path)"
    )
    ranked = sorted(reports, key=lambda r: r.gdi_km, reverse=True)[:5]
    print("top pairs by GDI:")
    for r in ranked:
        print(
            f"  {r.src} -> {r.dst}: clusters={r.cluster_count} "
            f"compression={r.compression_ratio:.2f} gdi={r.gdi_km:.1f} km "
            f"mgdi={r.mgdi_km:.1f} km ratio={r.gdi_over_mgdi:.3f}"
        )
    print(f"reports written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
