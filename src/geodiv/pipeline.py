"""End-to-end pipeline: parse traces, localize, filter, cluster, score, report.

Per-pair work is pure, so pairs can be fanned out to worker processes;
results are always merged back in lexicographic pair order, which keeps
every output file, and the warnings on stderr, byte-identical regardless
of the worker count. With more than one job, a reader process parses the
trace file while the main process loads the geolocation snapshot.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .cluster import Cluster, cluster_pair_routes
from .diversity import DiversityConfig, DiversityReport, compression_ratio, gdi, mgdi
from .errors import EmptyInput, ParseError
from .geodesy import Coordinate, great_circle_distance, path_length
from .geolocate import FilterStats, GeoDb, GeoPath, filter_pairs, load_geodb
from .traces import Pair, RouteSet, group_by_pair, parse_trace_file

logger = logging.getLogger(__name__)

PAIRS_CSV_HEADER = "src,dst,ip_routes,geo_paths,clusters,compression,gdi_km,mgdi_km,gdi_over_mgdi"
ECDF_CSV_HEADER = "value,cum_fraction"

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class EcdfTable:
    """Empirical CDF: (value, cumulative fraction) points over distinct values."""

    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class PipelineSummary:
    """Corpus-level accounting plus the per-pair scoring reports."""

    total_pairs: int
    pairs_removed_stage1: int
    pairs_removed_stage2: int
    pairs_scored: int
    per_pair: tuple[DiversityReport, ...]


@dataclass(frozen=True)
class ClusteredPair:
    """Clustering result for one endpoint pair, ready for scoring."""

    pair: Pair
    ip_route_count: int
    geo_path_count: int
    clusters: tuple[Cluster, ...]


def ecdf(values: Sequence[float]) -> EcdfTable:
    """Standard empirical CDF over the distinct values of a non-empty sample."""
    if len(values) == 0:
        raise EmptyInput("cannot build an ECDF from no values")
    ordered = sorted(values)
    n = len(ordered)
    points = []
    seen = 0
    for i, value in enumerate(ordered):
        seen += 1
        if i + 1 == n or ordered[i + 1] != value:
            points.append((value, seen / n))
    return EcdfTable(points=tuple(points))


def _parallel_map(fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: int) -> list[_R]:
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunk = max(1, len(tasks) // (jobs * 4))
            return list(pool.map(fn, tasks, chunksize=chunk))
    return [fn(task) for task in tasks]


def _cluster_task(args: tuple[Pair, tuple[GeoPath, ...], int, DiversityConfig]) -> ClusteredPair:
    pair, geopaths, ip_route_count, cfg = args
    clusters = cluster_pair_routes(geopaths, cfg.threshold_km, cfg.earth_radius_km)
    return ClusteredPair(
        pair=pair,
        ip_route_count=ip_route_count,
        geo_path_count=len(geopaths),
        clusters=clusters,
    )


def cluster_filtered_pairs(
    filtered: dict[Pair, tuple[GeoPath, ...]],
    ip_route_counts: dict[Pair, int],
    cfg: DiversityConfig,
    jobs: int = 1,
) -> tuple[ClusteredPair, ...]:
    tasks = [(pair, filtered[pair], ip_route_counts[pair], cfg) for pair in sorted(filtered)]
    return tuple(_parallel_map(_cluster_task, tasks, jobs))


def score_clustered_pair(
    pair: Pair,
    representatives: Sequence[GeoPath],
    geo_path_count: int,
    ip_route_count: int,
    cfg: DiversityConfig,
) -> DiversityReport:
    """Compute the diversity report for one pair's cluster representatives.

    MGDI inputs come from the longest representative: its polyline length,
    and the distance between its first and last nodes. A loop route
    (coincident first/last node) has no triangle construction; its MGDI is 0.
    """
    radius = cfg.earth_radius_km
    gdi_km = gdi(representatives, radius)

    longest = representatives[0]
    longest_len = path_length(longest.nodes, radius)
    for rep in representatives[1:]:
        length = path_length(rep.nodes, radius)
        if length > longest_len:
            longest, longest_len = rep, length
    endpoint_distance = great_circle_distance(longest.nodes[0], longest.nodes[-1], radius)
    if endpoint_distance <= 0.0:
        mgdi_km = 0.0
    else:
        mgdi_km = mgdi(
            len(representatives), endpoint_distance, max(longest_len, endpoint_distance), cfg
        )

    if mgdi_km > 0.0:
        ratio = gdi_km / mgdi_km
    else:
        ratio = 0.0 if gdi_km == 0.0 else float("inf")

    return DiversityReport(
        src=pair[0],
        dst=pair[1],
        ip_route_count=ip_route_count,
        geo_path_count=geo_path_count,
        cluster_count=len(representatives),
        compression_ratio=compression_ratio(ip_route_count, len(representatives)),
        gdi_km=gdi_km,
        mgdi_km=mgdi_km,
        gdi_over_mgdi=ratio,
    )


def _warn_over_ceiling(reports: Sequence[DiversityReport]) -> None:
    """Log each report whose GDI exceeds its MGDI. Called in the merging
    process on reports in pair order, so the lines do not depend on which
    worker scored which pair."""
    for r in reports:
        if r.gdi_over_mgdi > 1.0:
            logger.warning(
                "pair %s -> %s: GDI %.3f km exceeds MGDI %.3f km", r.src, r.dst, r.gdi_km, r.mgdi_km
            )


def score_pair(
    pair: Pair, geopaths: Sequence[GeoPath], ip_route_count: int, cfg: DiversityConfig
) -> DiversityReport:
    """Cluster one pair's geo-paths and compute its diversity report."""
    clustered = _cluster_task((pair, tuple(geopaths), ip_route_count, cfg))
    return _score_clustered_task((clustered, cfg))


def _score_pair_task(
    args: tuple[Pair, tuple[GeoPath, ...], int, DiversityConfig]
) -> DiversityReport:
    pair, geopaths, ip_route_count, cfg = args
    return score_pair(pair, geopaths, ip_route_count, cfg)


def _score_row_task(
    args: tuple[tuple[Pair, Sequence[GeoPath], int, int], DiversityConfig]
) -> DiversityReport:
    (pair, representatives, geo_path_count, ip_route_count), cfg = args
    return score_clustered_pair(pair, representatives, geo_path_count, ip_route_count, cfg)


def score_cluster_rows(
    rows: Iterable[tuple[Pair, Sequence[GeoPath], int, int]], cfg: DiversityConfig, jobs: int = 1
) -> tuple[DiversityReport, ...]:
    """Score :func:`read_clusters_file` rows in pair order, optionally
    across processes."""
    tasks = [(row, cfg) for row in sorted(rows, key=lambda row: row[0])]
    reports = tuple(_parallel_map(_score_row_task, tasks, jobs))
    _warn_over_ceiling(reports)
    return reports


def _score_clustered_task(args: tuple[ClusteredPair, DiversityConfig]) -> DiversityReport:
    clustered, cfg = args
    representatives = [c.representative for c in clustered.clusters]
    return score_clustered_pair(
        clustered.pair,
        representatives,
        clustered.geo_path_count,
        clustered.ip_route_count,
        cfg,
    )


def score_filtered_pairs(
    filtered: dict[Pair, tuple[GeoPath, ...]],
    ip_route_counts: dict[Pair, int],
    cfg: DiversityConfig,
    jobs: int = 1,
) -> tuple[DiversityReport, ...]:
    """Cluster and score every surviving pair, optionally across processes."""
    tasks = [(pair, filtered[pair], ip_route_counts[pair], cfg) for pair in sorted(filtered)]
    reports = tuple(_parallel_map(_score_pair_task, tasks, jobs))
    _warn_over_ceiling(reports)
    return reports


def summarize(stats: FilterStats, reports: Iterable[DiversityReport]) -> PipelineSummary:
    per_pair = tuple(reports)
    return PipelineSummary(
        total_pairs=stats.input_pairs,
        pairs_removed_stage1=stats.removed_single_ip_route,
        pairs_removed_stage2=stats.removed_single_geo_path,
        pairs_scored=len(per_pair),
        per_pair=per_pair,
    )


def _send_route_sets(
    traces_path: str | Path,
    receiver: multiprocessing.connection.Connection,
    sender: multiprocessing.connection.Connection,
) -> None:
    """Reader process: parse and group the trace file, then send the route
    sets, or the error that stopped them, to the parent. The copy of the
    parent's end is closed first, so a send fails instead of blocking once
    the parent has closed it."""
    receiver.close()
    try:
        result: object = group_by_pair(parse_trace_file(traces_path))
    except Exception as exc:  # noqa: BLE001 - raised again in the parent
        result = exc
    sender.send(result)


def _read_while_loading(
    traces_path: str | Path, geodb_path: str | Path
) -> tuple[dict[Pair, RouteSet], GeoDb]:
    """Route sets from a reader process, and the snapshot loaded here
    meanwhile. The reader is a child process with a pipe, not a thread: a
    thread here, such as an executor's feeder, would get no time while the
    load holds the GIL.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    reader = multiprocessing.Process(target=_send_route_sets, args=(traces_path, receiver, sender))
    reader.start()
    sender.close()
    try:
        try:
            db = load_geodb(geodb_path)
        except Exception:
            # As when the traces are read first, their error wins.
            _receive_route_sets(receiver)
            raise
        return _receive_route_sets(receiver), db
    finally:
        receiver.close()
        reader.join()


def _receive_route_sets(receiver: multiprocessing.connection.Connection) -> dict[Pair, RouteSet]:
    """The reader's route sets; the error it sent instead is raised here."""
    try:
        result = receiver.recv()
    except EOFError:
        raise RuntimeError("the trace reader exited without a result") from None
    if isinstance(result, Exception):
        raise result
    return result


def prepare_filtered_pairs(
    traces_path: str | Path, geodb_path: str | Path, jobs: int = 1
) -> tuple[dict[Pair, tuple[GeoPath, ...]], dict[Pair, int], FilterStats]:
    """Shared front half of the pipeline: parse, group, localize, filter.

    With ``jobs > 1`` the traces are parsed and grouped in one reader
    process while this process loads the snapshot; the reader has exited
    when this returns.
    """
    if jobs > 1:
        route_sets, db = _read_while_loading(traces_path, geodb_path)
    else:
        route_sets = group_by_pair(parse_trace_file(traces_path))
        db = load_geodb(geodb_path)
    filtered, stats = filter_pairs(route_sets, db)
    ip_route_counts = {pair: len(route_sets[pair].ip_routes) for pair in filtered}
    return filtered, ip_route_counts, stats


def run_pipeline(
    traces_path: str | Path,
    geodb_path: str | Path,
    cfg: DiversityConfig | None = None,
    jobs: int = 1,
) -> PipelineSummary:
    """Run the whole pipeline over a trace file and a geolocation snapshot."""
    cfg = cfg or DiversityConfig()
    filtered, ip_route_counts, stats = prepare_filtered_pairs(traces_path, geodb_path, jobs)
    reports = score_filtered_pairs(filtered, ip_route_counts, cfg, jobs=jobs)
    return summarize(stats, reports)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _ecdf_csv(values: Sequence[float]) -> str:
    lines = [ECDF_CSV_HEADER]
    if values:
        table = ecdf(values)
        lines.extend(f"{_fmt(v)},{_fmt(f)}" for v, f in table.points)
    return "\n".join(lines) + "\n"


def emit_report(summary: PipelineSummary, out_dir: str | Path) -> list[Path]:
    """Write report.json, pairs.csv and the two ECDF CSVs; byte-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payload = {
        "summary": {
            "total_pairs": summary.total_pairs,
            "pairs_removed_stage1": summary.pairs_removed_stage1,
            "pairs_removed_stage2": summary.pairs_removed_stage2,
            "pairs_scored": summary.pairs_scored,
        },
        "pairs": [asdict(report) for report in summary.per_pair],
    }
    report_json = out / "report.json"
    _write_text(report_json, json.dumps(payload, indent=2) + "\n")

    pairs_csv = out / "pairs.csv"
    rows = [PAIRS_CSV_HEADER]
    for r in summary.per_pair:
        rows.append(
            ",".join(
                (
                    r.src,
                    r.dst,
                    str(r.ip_route_count),
                    str(r.geo_path_count),
                    str(r.cluster_count),
                    _fmt(r.compression_ratio),
                    _fmt(r.gdi_km),
                    _fmt(r.mgdi_km),
                    _fmt(r.gdi_over_mgdi),
                )
            )
        )
    _write_text(pairs_csv, "\n".join(rows) + "\n")

    compression_csv = out / "compression_ecdf.csv"
    _write_text(compression_csv, _ecdf_csv([r.compression_ratio for r in summary.per_pair]))

    # The GDI/MGDI distribution only makes sense where at least two
    # geographically different routes exist.
    ratio_csv = out / "gdi_ratio_ecdf.csv"
    ratios = [r.gdi_over_mgdi for r in summary.per_pair if r.cluster_count >= 2]
    _write_text(ratio_csv, _ecdf_csv(ratios))

    return [report_json, pairs_csv, compression_csv, ratio_csv]


def _nodes_to_json(nodes: Sequence[Coordinate]) -> list[list[float]]:
    return [[n.lat, n.lon] for n in nodes]


def write_clusters_file(
    clustered: Sequence[ClusteredPair],
    cfg: DiversityConfig,
    path: str | Path,
    stats: FilterStats | None = None,
) -> Path:
    """Serialize per-pair clustering results so scoring can resume later."""
    payload: dict[str, object] = {
        "threshold_km": cfg.threshold_km,
        "earth_radius_km": cfg.earth_radius_km,
    }
    if stats is not None:
        payload["filter_stats"] = {
            "input_pairs": stats.input_pairs,
            "removed_single_ip_route": stats.removed_single_ip_route,
            "removed_single_geo_path": stats.removed_single_geo_path,
        }
    payload["pairs"] = [
            {
                "src": cp.pair[0],
                "dst": cp.pair[1],
                "ip_route_count": cp.ip_route_count,
                "geo_path_count": cp.geo_path_count,
                "clusters": [
                    {
                        "id": cluster.id,
                        "representative": _nodes_to_json(cluster.representative.nodes),
                        "members": [
                            {
                                "nodes": _nodes_to_json(member.nodes),
                                "origin_routes": [list(route) for route in member.origin_routes],
                            }
                            for member in cluster.members
                        ],
                    }
                    for cluster in cp.clusters
                ],
            }
            for cp in clustered
        ]
    out = Path(path)
    _write_text(out, json.dumps(payload, indent=2) + "\n")
    return out


def _path_from_json(nodes: object, *, path: str, what: str) -> GeoPath:
    if not isinstance(nodes, list) or len(nodes) < 2:
        raise ParseError(f"{what}: expected a list of at least 2 [lat, lon] nodes", path=path)
    coords = []
    for node in nodes:
        if not isinstance(node, list) or len(node) != 2:
            raise ParseError(f"{what}: node must be a [lat, lon] pair", path=path)
        try:
            coords.append(Coordinate(lat=float(node[0]), lon=float(node[1])))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{what}: {exc}", path=path) from exc
    try:
        return GeoPath(nodes=tuple(coords))
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", path=path) from exc


def read_clusters_file(
    path: str | Path,
) -> tuple[list[tuple[Pair, list[GeoPath], int, int]], float, FilterStats | None]:
    """Load a clusters file; returns (pair, representatives, geo_path_count,
    ip_route_count) rows in file order, the stored earth radius and, when
    present, the filter stats recorded by the clustering run."""
    name = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=name, line=exc.lineno) from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("pairs"), list):
        raise ParseError("clusters file must be an object with a 'pairs' array", path=name)
    # A missing, null or zero radius means "not recorded".
    radius = payload.get("earth_radius_km") or 0.0
    if not isinstance(radius, (int, float)) or not 0.0 <= radius < math.inf:
        raise ParseError(f"earth_radius_km must be a positive number, got {radius!r}", path=name)
    radius = float(radius)
    stats = None
    raw_stats = payload.get("filter_stats")
    if isinstance(raw_stats, dict):
        try:
            stats = FilterStats(
                input_pairs=int(raw_stats["input_pairs"]),
                removed_single_ip_route=int(raw_stats["removed_single_ip_route"]),
                removed_single_geo_path=int(raw_stats["removed_single_geo_path"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed filter_stats: {exc}", path=name) from exc
    rows = []
    for entry in payload["pairs"]:
        if not isinstance(entry, dict):
            raise ParseError("each pair entry must be an object", path=name)
        try:
            pair = (str(entry["src"]), str(entry["dst"]))
            ip_route_count = int(entry["ip_route_count"])
            geo_path_count = int(entry["geo_path_count"])
            clusters = entry["clusters"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed pair entry: {exc}", path=name) from exc
        if not isinstance(clusters, list) or not clusters:
            raise ParseError(f"pair {pair}: 'clusters' must be a non-empty array", path=name)
        if ip_route_count < len(clusters):
            raise ParseError(
                f"pair {pair}: ip_route_count {ip_route_count} is below its "
                f"{len(clusters)} clusters",
                path=name,
            )
        representatives = []
        for cluster in clusters:
            if not isinstance(cluster, dict) or "representative" not in cluster:
                raise ParseError(f"pair {pair}: cluster without representative", path=name)
            representatives.append(
                _path_from_json(cluster["representative"], path=name, what=f"pair {pair}")
            )
        rows.append((pair, representatives, geo_path_count, ip_route_count))
    return rows, radius, stats
