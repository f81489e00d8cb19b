"""Command-line front end, and the only code that writes to the terminal.

Subcommands:
  pipeline  end-to-end: traces + geodb -> per-pair diversity reports
  cluster   stop after clustering, emit clusters.json
  gdi       score a previously emitted clusters.json

Exit codes: 0 success, 1 input or usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

from .diversity import DiversityConfig, DiversityReport
from .errors import InvalidConfig, ParseError
from .geolocate import FilterStats
from .pipeline import (
    cluster_corpus,
    emit_report,
    read_clusters_file,
    run_pipeline,
    score_cluster_rows,
    write_clusters_file,
)

_DEFAULTS = DiversityConfig()
# The most processes a run may keep busy, so that a typo cannot fork a
# thousand at once.
MAX_JOBS = 256


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input, so it exits 1; 2 means an internal error."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on: an affinity mask can rule out cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geodiv",
        description="Geographic diversity analysis of traceroute-measured Internet routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in (
        ("pipeline", "run the full pipeline and emit reports"),
        ("cluster", "stop after clustering; emit clusters.json"),
        ("gdi", "score a clusters.json file and emit reports"),
    ):
        p = sub.add_parser(command, help=summary)
        if command == "gdi":
            p.add_argument("--clusters", required=True, metavar="PATH", help="clusters.json input")
        else:
            p.add_argument("--traces", required=True, metavar="PATH", help="JSONL trace file")
            p.add_argument("--geodb", required=True, metavar="PATH", help="CSV geolocation snapshot")
            p.add_argument(
                "--threshold-km", type=float, default=_DEFAULTS.threshold_km, metavar="KM",
                help="geographic-equality threshold (default: %(default)g)",
            )
            p.add_argument(
                "--earth-radius-km", type=float, default=_DEFAULTS.earth_radius_km, metavar="KM",
                help="spherical Earth radius (default: %(default)g)",
            )
        if command != "cluster":
            p.add_argument(
                "--mgdi-grid-steps", type=int, default=_DEFAULTS.mgdi_grid_steps, metavar="N",
                help="apex-height grid resolution for the MGDI search (default: %(default)s)",
            )
        p.add_argument("--out", required=True, metavar="DIR", help="output directory")
        p.add_argument(
            "--jobs", type=int, default=min(_usable_cpus(), MAX_JOBS), metavar="N",
            help=f"worker processes, at most {MAX_JOBS} (default: the usable CPUs)",
        )
    return parser


def _print_counts(stats: FilterStats, outcome: str) -> None:
    print(
        f"pairs: {stats.input_pairs} total, {stats.removed_single_ip_route} removed (single IP route), "
        f"{stats.removed_single_geo_path} removed (single geo-path), {outcome}"
    )


def _report(reports: list[DiversityReport], stats: FilterStats, out_dir: str) -> int:
    """Warn once if any pair's GDI exceeds its MGDI, then write the reports
    and print the counts."""
    if over := sum(r.gdi_over_mgdi > 1.0 for r in reports):
        sys.stderr.write(
            f"WARNING: {over} of {len(reports)} scored pairs have GDI above MGDI "
            "(gdi_over_mgdi > 1 in pairs.csv)\n"
        )
    out = Path(out_dir)
    emit_report(reports, stats, out)
    _print_counts(stats, f"{len(reports)} scored; reports in {out}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = DiversityConfig(
        threshold_km=args.threshold_km,
        earth_radius_km=args.earth_radius_km,
        mgdi_grid_steps=args.mgdi_grid_steps,
    )
    return _report(*run_pipeline(args.traces, args.geodb, cfg, jobs=args.jobs), args.out)


def _cmd_cluster(args: argparse.Namespace) -> int:
    cfg = DiversityConfig(threshold_km=args.threshold_km, earth_radius_km=args.earth_radius_km)
    clustered, stats = cluster_corpus(args.traces, args.geodb, cfg, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_clusters_file(clustered, cfg, out / "clusters.json", stats=stats)
    _print_counts(stats, f"{len(clustered)} clustered; wrote {path}")
    return 0


def _cmd_gdi(args: argparse.Namespace) -> int:
    DiversityConfig(mgdi_grid_steps=args.mgdi_grid_steps)  # checks the flag before the file is read
    clustered, radius, stats = read_clusters_file(args.clusters)
    cfg = DiversityConfig(earth_radius_km=radius, mgdi_grid_steps=args.mgdi_grid_steps)
    return _report(score_cluster_rows(clustered, cfg, jobs=args.jobs), stats, args.out)


_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "cluster": _cmd_cluster,
    "gdi": _cmd_gdi,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise InvalidConfig("jobs", f"must be a positive integer, got {args.jobs}")
        if args.jobs > MAX_JOBS:
            raise InvalidConfig("jobs", f"must be at most {MAX_JOBS}, got {args.jobs}")
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
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
