"""Command-line front end.

Subcommands:
  pipeline  end-to-end: traces + geodb -> per-pair diversity reports
  cluster   stop after clustering, emit clusters.json
  gdi       score a previously emitted clusters.json

Exit codes: 0 success, 1 input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .diversity import DiversityConfig
from .errors import DuplicateCidr, InvalidConfig, ParseError
from .geolocate import FilterStats
from .pipeline import (
    PipelineSummary,
    cluster_corpus,
    emit_report,
    read_clusters_file,
    run_pipeline,
    score_cluster_rows,
    summarize,
    write_clusters_file,
)


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes (default: all cores)",
    )


def _add_trace_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--traces", required=True, metavar="PATH", help="JSONL trace file")
    parser.add_argument("--geodb", required=True, metavar="PATH", help="CSV geolocation snapshot")
    parser.add_argument(
        "--threshold-km",
        type=float,
        default=50.0,
        metavar="KM",
        help="geographic-equality threshold (default: 50)",
    )


def _add_scoring_flags(parser: argparse.ArgumentParser, *, radius_default: float | None) -> None:
    parser.add_argument(
        "--earth-radius-km",
        type=float,
        default=radius_default,
        metavar="KM",
        help="spherical Earth radius (default: 6371)",
    )
    parser.add_argument(
        "--mgdi-grid-steps",
        type=int,
        default=21,
        metavar="N",
        help="apex-height grid resolution for the MGDI search (default: 21)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodiv",
        description="Geographic diversity analysis of traceroute-measured Internet routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pipeline = sub.add_parser("pipeline", help="run the full pipeline and emit reports")
    _add_trace_inputs(p_pipeline)
    _add_scoring_flags(p_pipeline, radius_default=6371.0)
    _add_common_output(p_pipeline)

    p_cluster = sub.add_parser("cluster", help="stop after clustering; emit clusters.json")
    _add_trace_inputs(p_cluster)
    p_cluster.add_argument(
        "--earth-radius-km", type=float, default=6371.0, metavar="KM",
        help="spherical Earth radius (default: 6371)",
    )
    _add_common_output(p_cluster)

    p_gdi = sub.add_parser("gdi", help="score a clusters.json file and emit reports")
    p_gdi.add_argument("--clusters", required=True, metavar="PATH", help="clusters.json input")
    _add_scoring_flags(p_gdi, radius_default=None)
    _add_common_output(p_gdi)

    return parser


def _print_summary(summary: PipelineSummary, out: Path) -> None:
    print(
        f"pairs: {summary.total_pairs} total, "
        f"{summary.pairs_removed_stage1} removed (single IP route), "
        f"{summary.pairs_removed_stage2} removed (single geo-path), "
        f"{summary.pairs_scored} scored; reports in {out}"
    )


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = DiversityConfig(
        threshold_km=args.threshold_km,
        earth_radius_km=args.earth_radius_km,
        mgdi_grid_steps=args.mgdi_grid_steps,
    )
    summary = run_pipeline(args.traces, args.geodb, cfg, jobs=args.jobs)
    out = Path(args.out)
    emit_report(summary, out)
    _print_summary(summary, out)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    cfg = DiversityConfig(threshold_km=args.threshold_km, earth_radius_km=args.earth_radius_km)
    clustered, stats = cluster_corpus(args.traces, args.geodb, cfg, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_clusters_file(clustered, cfg, out / "clusters.json", stats=stats)
    print(
        f"pairs: {stats.input_pairs} total, "
        f"{stats.removed_single_ip_route} removed (single IP route), "
        f"{stats.removed_single_geo_path} removed (single geo-path), "
        f"{len(clustered)} clustered; wrote {path}"
    )
    return 0


def _cmd_gdi(args: argparse.Namespace) -> int:
    rows, stored_radius, stats = read_clusters_file(args.clusters)
    radius = args.earth_radius_km if args.earth_radius_km is not None else (stored_radius or 6371.0)
    cfg = DiversityConfig(earth_radius_km=radius, mgdi_grid_steps=args.mgdi_grid_steps)
    reports = score_cluster_rows(rows, cfg, jobs=args.jobs)
    # Without recorded filter stats, every pair in the file counts as scored.
    summary = summarize(stats or FilterStats(len(reports), 0, 0), reports)
    out = Path(args.out)
    emit_report(summary, out)
    _print_summary(summary, out)
    return 0


_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "cluster": _cmd_cluster,
    "gdi": _cmd_gdi,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise InvalidConfig("jobs", f"must be a positive integer, got {args.jobs}")
        return _COMMANDS[args.command](args)
    except (ParseError, DuplicateCidr, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidConfig as exc:
        # Every setting comes from the flag of the same name; a clusters
        # file's stored radius is checked when the file is read.
        print(f"error: --{exc.field.replace('_', '-')} {exc.reason}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
