"""End-to-end pipeline: parse traces, localize, filter, cluster, score, report.

Per-pair work is pure, so pairs are split into stripes: with ``w``
processes, each takes every ``w``-th pair in lexicographic order. The
main process works stripe 0, and ``os.fork`` children, which inherit the
inputs in memory, work the others, each pickling its results to a pipe
of its own. Pair ``p`` is read from stripe ``p % w``, so every output is
byte-identical for any worker count. With more than one job, a reader
child parses the trace file while the main process loads the snapshot.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .cluster import Cluster, cluster_pair_routes
from .diversity import MAX_EARTH_RADIUS_KM, DiversityConfig, DiversityReport, _is_number, compression_ratio, gdi, mgdi
from .errors import ParseError, _blocks, invalid_json
from .geodesy import EARTH_RADIUS_KM, Coordinate, great_circle_distance, path_length
from .geolocate import FilterStats, GeoPath, filter_pairs, load_geodb
from .traces import Pair, _check_address, group_by_pair, parse_trace_file

PAIRS_CSV_HEADER = "src,dst,ip_routes,geo_paths,clusters,compression,gdi_km,mgdi_km,gdi_over_mgdi"
ECDF_CSV_HEADER = "value,cum_fraction"

_T = TypeVar("_T")
_R = TypeVar("_R")


class ClusteredPair(NamedTuple):
    """Clustering result for one endpoint pair, ready for scoring."""

    pair: Pair
    ip_route_count: int
    geo_path_count: int
    clusters: tuple[Cluster, ...]


def ecdf(values: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Standard empirical CDF: a (value, cumulative fraction) point per
    distinct value, in increasing order; none for no values."""
    ordered = sorted(values)
    n = len(ordered)
    points = []
    for i, value in enumerate(ordered):
        if i + 1 == n or ordered[i + 1] != value:
            points.append((value, (i + 1) / n))
    return tuple(points)


def _run_forked(calls: Sequence[Callable[[], object]]) -> list[object]:
    """The outcome of each call: its result, or the exception it raised.

    The first call runs here once every other one has started in a forked
    child, which inherits this process's memory and writes its pickled
    outcome to a pipe of its own. Every pipe is read to its end, so no
    child blocks on a full one, and every child is reaped before return.
    Call it only while no other thread runs.
    """
    if len(calls) == 1:
        return [_outcome(calls[0])]
    import pickle
    import signal

    pids: list[int] = []
    read_ends: list[int] = []
    try:
        for call in calls[1:]:
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                if (pid := os.fork()) == 0:
                    # Child: holding no read end, its write fails rather than blocks once the parent's closes.
                    try:
                        for fd in read_ends:
                            os.close(fd)
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps(_outcome(call)))
                    finally:
                        os._exit(0)
            finally:
                os.close(write_end)
            pids.append(pid)
        outcomes = [_outcome(calls[0])]
        for read_end in read_ends:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                outcomes.append(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("a worker process exited without a result") from None
        return outcomes
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_end in read_ends:
            os.close(read_end)
        for pid in pids:
            os.waitpid(pid, 0)


def _outcome(call: Callable[[], _R]) -> _R | Exception:
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - handed to the caller
        return exc


def _raise_first(outcomes: Iterable[object]) -> None:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome


def _each(fn: Callable[..., _R], tasks: Iterable[tuple | None]) -> list[_R | Exception | None]:
    """``fn(*args)`` for each ``args`` in order, ``None`` for each ``None``,
    up to the first call that raises, which gives its exception."""
    done: list[_R | Exception | None] = []
    for args in tasks:
        try:
            done.append(None if args is None else fn(*args))
        except Exception as exc:  # noqa: BLE001 - raised in position order
            done.append(exc)
            break
    return done


def _in_stripes(
    stripe: Callable[[int, int], tuple[list, _T]], count: int, jobs: int
) -> tuple[list, list[_T]]:
    """Run ``stripe(k, w)`` for each ``k < w = min(jobs, count)``, each but
    stripe 0 in a forked child. Stripe ``k`` returns :func:`_each`'s list
    for positions ``k``, ``k + w``, ... and one more value; returns the
    results in position order, without the ``None`` ones, and the extra
    values. A stripe that failed as a whole raises first, then the first
    failing position does."""
    w = max(1, min(jobs, count))
    outcomes = _run_forked([partial(stripe, k, w) for k in range(w)])
    _raise_first(outcomes)
    results = []
    for p in range(count):  # a stripe's list ends where it raises, so no lookup overruns it
        result = outcomes[p % w][0][p // w]
        if isinstance(result, Exception):
            raise result
        if result is not None:
            results.append(result)
    return results, [extra for _, extra in outcomes]


def _read_inputs(traces_path: str | Path, geodb_path: str | Path, jobs: int) -> list:
    """``[route sets, snapshot]``. With ``jobs > 1`` a forked reader parses
    and groups the traces while this process loads the snapshot; as when
    the traces are read first, their error wins."""
    if jobs <= 1:
        return [group_by_pair(parse_trace_file(traces_path)), load_geodb(geodb_path)]
    outcomes = _run_forked(
        [lambda: load_geodb(geodb_path), lambda: group_by_pair(parse_trace_file(traces_path))]
    )[::-1]
    _raise_first(outcomes)
    return outcomes


def _over_corpus(
    traces_path: str | Path,
    geodb_path: str | Path,
    cfg: DiversityConfig,
    jobs: int,
    per_pair: Callable[[Pair, Sequence[GeoPath], int, DiversityConfig], _R],
) -> tuple[list[_R], FilterStats]:
    """``per_pair`` of every pair that survives the filter, in pair order,
    and the filter's accounting. Once the route sets and the snapshot are
    in memory, each of ``w`` processes takes every ``w``-th pair, and
    localizes, filters and finishes them from the inputs it inherited."""
    inputs = _read_inputs(traces_path, geodb_path, jobs)
    pairs = sorted(inputs[0])

    def stripe(k: int, w: int) -> tuple[list[_R | Exception | None], FilterStats]:
        mine = pairs[k::w]
        route_sets, db = inputs
        inputs.clear()  # so that the inputs are freed once the stripe is localized
        filtered, stats = filter_pairs({pair: route_sets[pair] for pair in mine}, db)
        counts = {pair: len(route_sets[pair].ip_routes) for pair in filtered}
        del route_sets, db
        tasks = ((pair, filtered[pair], counts[pair], cfg) if pair in filtered else None for pair in mine)
        return _each(per_pair, tasks), stats

    results, stats = _in_stripes(stripe, len(pairs), jobs)
    return results, FilterStats(
        input_pairs=len(pairs),
        removed_single_ip_route=sum(s.removed_single_ip_route for s in stats),
        removed_single_geo_path=sum(s.removed_single_geo_path for s in stats),
    )


def cluster_pair(
    pair: Pair, geopaths: Sequence[GeoPath], ip_route_count: int, cfg: DiversityConfig
) -> ClusteredPair:
    """Cluster one pair's geo-paths."""
    clusters = cluster_pair_routes(geopaths, cfg.threshold_km, cfg.earth_radius_km)
    return ClusteredPair(pair, ip_route_count, len(geopaths), clusters)


def cluster_corpus(
    traces_path: str | Path, geodb_path: str | Path, cfg: DiversityConfig, jobs: int = 1
) -> tuple[list[ClusteredPair], FilterStats]:
    """Parse, localize, filter and cluster, in up to ``jobs`` processes."""
    return _over_corpus(traces_path, geodb_path, cfg, jobs, cluster_pair)


def score_clustered_pair(clustered: ClusteredPair, cfg: DiversityConfig) -> DiversityReport:
    """The diversity report of one clustered pair, from its clusters' representatives.

    MGDI inputs come from the first longest representative: its
    :func:`path_length`, and the :func:`great_circle_distance` of its ends.
    A loop route (coincident ends) has no triangle construction; its MGDI is 0.
    """
    representatives = [c.representative for c in clustered.clusters]
    radius = cfg.earth_radius_km
    gdi_km = gdi(representatives, radius)

    routes = [(path_length(rep.nodes, radius), rep.nodes) for rep in representatives]
    longest_len, longest = max(routes, key=itemgetter(0))
    endpoint_distance = great_circle_distance(longest[0], longest[-1], radius)
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
        src=clustered.pair[0],
        dst=clustered.pair[1],
        ip_route_count=clustered.ip_route_count,
        geo_path_count=clustered.geo_path_count,
        cluster_count=len(representatives),
        compression_ratio=compression_ratio(clustered.ip_route_count, len(representatives)),
        gdi_km=gdi_km,
        mgdi_km=mgdi_km,
        gdi_over_mgdi=ratio,
    )


def _score_pair(
    pair: Pair, geopaths: Sequence[GeoPath], ip_route_count: int, cfg: DiversityConfig
) -> DiversityReport:
    """Cluster one pair's geo-paths and compute its diversity report, so
    that a stripe holds one pair's clusters at a time."""
    return score_clustered_pair(cluster_pair(pair, geopaths, ip_route_count, cfg), cfg)


def score_cluster_rows(
    rows: Iterable[ClusteredPair], cfg: DiversityConfig, jobs: int = 1
) -> list[DiversityReport]:
    """Score clustered pairs in pair order, in up to ``jobs`` processes."""
    ordered = sorted(rows, key=attrgetter("pair"))

    def stripe(k: int, w: int) -> tuple[list[DiversityReport | Exception | None], None]:
        return _each(score_clustered_pair, ((row, cfg) for row in ordered[k::w])), None

    return _in_stripes(stripe, len(ordered), jobs)[0]


def run_pipeline(
    traces_path: str | Path,
    geodb_path: str | Path,
    cfg: DiversityConfig | None = None,
    jobs: int = 1,
) -> tuple[list[DiversityReport], FilterStats]:
    """Run the whole pipeline over a trace file and a geolocation snapshot,
    in up to ``jobs`` processes; returns the reports of the scored pairs,
    in pair order, and the filter's accounting."""
    return _over_corpus(traces_path, geodb_path, cfg or DiversityConfig(), jobs, _score_pair)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _ecdf_csv(values: Sequence[float]) -> str:
    lines = [ECDF_CSV_HEADER]
    lines.extend(f"{_fmt(v)},{_fmt(f)}" for v, f in ecdf(values))
    return "\n".join(lines) + "\n"


def emit_report(reports: Sequence[DiversityReport], stats: FilterStats, out_dir: str | Path) -> list[Path]:
    """Write report.json, pairs.csv and the two ECDF CSVs; byte-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payload = {
        "summary": {
            "total_pairs": stats.input_pairs,
            "pairs_removed_stage1": stats.removed_single_ip_route,
            "pairs_removed_stage2": stats.removed_single_geo_path,
            "pairs_scored": len(reports),
        },
        # Strict JSON has no infinity: a pair with GDI but no MGDI gets a null ratio.
        "pairs": [
            (r if math.isfinite(r.gdi_over_mgdi) else r._replace(gdi_over_mgdi=None))._asdict() for r in reports
        ],
    }
    report_json = out / "report.json"
    _write_text(report_json, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    pairs_csv = out / "pairs.csv"
    rows = [PAIRS_CSV_HEADER]
    for r in reports:
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
    _write_text(compression_csv, _ecdf_csv([r.compression_ratio for r in reports]))

    # The GDI/MGDI distribution only makes sense where at least two
    # geographically different routes exist.
    ratio_csv = out / "gdi_ratio_ecdf.csv"
    ratios = [r.gdi_over_mgdi for r in reports if r.cluster_count >= 2]
    _write_text(ratio_csv, _ecdf_csv(ratios))

    return [report_json, pairs_csv, compression_csv, ratio_csv]


def _nodes_to_json(nodes: Sequence[Coordinate]) -> list[list[float]]:
    return [[n.lat, n.lon] for n in nodes]


def write_clusters_file(
    clustered: Sequence[ClusteredPair],
    cfg: DiversityConfig,
    path: str | Path,
    stats: FilterStats,
) -> Path:
    """Serialize per-pair clustering results and the filter's accounting,
    so scoring can resume later; creates the file's directory."""
    payload = {
        "threshold_km": cfg.threshold_km,
        "earth_radius_km": cfg.earth_radius_km,
        "filter_stats": stats._asdict(),
        "pairs": [
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
        ],
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text(out, json.dumps(payload, allow_nan=False) + "\n")
    return out


def _path_from_json(nodes: object, *, path: str, what: str) -> GeoPath:
    if not isinstance(nodes, list) or len(nodes) < 2:
        raise ParseError(f"{what}: expected a list of at least 2 [lat, lon] nodes", path=path)
    coords = []
    for node in nodes:
        if not isinstance(node, list) or len(node) != 2 or not all(map(_is_number, node)):
            raise ParseError(f"{what}: node must be a [lat, lon] pair of numbers", path=path)
        try:
            coords.append(Coordinate(lat=float(node[0]), lon=float(node[1])))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{what}: {exc}", path=path) from exc
    try:
        return GeoPath(nodes=tuple(coords))
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", path=path) from exc


def _count(value: object) -> int:
    """A whole count from a clusters file: a non-negative JSON integer, so
    neither a fraction, a string nor ``true`` or ``false``, which Python
    would take for 1 or 0. Past the float range it could not form a ratio,
    so ``float`` raises ``OverflowError`` there."""
    if type(value) is not int or value < 0:
        shown = "an array or object" if isinstance(value, (list, dict)) else json.dumps(value)
        raise TypeError(f"expected a count, got {shown}")
    float(value)
    return value


def read_clusters_file(path: str | Path) -> tuple[list[ClusteredPair], float, FilterStats]:
    """Load a clusters file; returns its clustered pairs in file order, the
    earth radius and the filter stats recorded by the clustering run. Each
    cluster is ``Cluster(k, (representative,))``, as scoring reads no
    ``members``. A file that records no radius gives ``EARTH_RADIUS_KM``,
    and one without stats counts every pair in it as scored."""
    name = str(path)
    try:  # one document, so a bad byte anywhere in it wins; a block's lines are joined as it is read
        payload = json.loads("".join(map("".join, _blocks(path))).replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:
        # A malformed file's error has a line (counted at \r\n, \r and \n); a too deep or too long one's has none.
        raise invalid_json(exc, name, getattr(exc, "lineno", None)) from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("pairs"), list):
        raise ParseError("clusters file must be an object with a 'pairs' array", path=name)
    # A missing, null or zero radius means "not recorded".
    recorded = payload.get("earth_radius_km")
    if recorded is not None and not (_is_number(recorded) and 0.0 <= recorded <= MAX_EARTH_RADIUS_KM):
        raise ParseError(
            f"earth_radius_km must be a positive number of at most {MAX_EARTH_RADIUS_KM:g}, got {recorded!r}",
            path=name,
        )
    radius = float(recorded or EARTH_RADIUS_KM)
    stats = None
    raw_stats = payload.get("filter_stats")
    if isinstance(raw_stats, dict):
        try:
            stats = FilterStats(
                input_pairs=_count(raw_stats["input_pairs"]),
                removed_single_ip_route=_count(raw_stats["removed_single_ip_route"]),
                removed_single_geo_path=_count(raw_stats["removed_single_geo_path"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed filter_stats: {exc}", path=name) from exc
    clustered: dict[Pair, ClusteredPair] = {}
    for i, entry in enumerate(payload["pairs"]):
        if not isinstance(entry, dict):
            raise ParseError("each pair entry must be an object", path=name)
        try:
            pair = tuple(_check_address(entry[key], f"pairs[{i}].{key}", name, None) for key in ("src", "dst"))
            ip_route_count = _count(entry["ip_route_count"])
            geo_path_count = _count(entry["geo_path_count"])
            clusters = entry["clusters"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed pair entry: {exc}", path=name) from exc
        if pair in clustered:
            raise ParseError(f"pair {pair} is listed twice", path=name)
        if not isinstance(clusters, list) or not clusters:
            raise ParseError(f"pair {pair}: 'clusters' must be a non-empty array", path=name)
        if not len(clusters) <= geo_path_count <= ip_route_count:
            raise ParseError(
                f"pair {pair}: expected {len(clusters)} clusters <= geo_path_count "
                f"{geo_path_count} <= ip_route_count {ip_route_count}",
                path=name,
            )
        parsed = []
        for k, cluster in enumerate(clusters):
            if not isinstance(cluster, dict) or "representative" not in cluster:
                raise ParseError(f"pair {pair}: cluster without representative", path=name)
            representative = _path_from_json(cluster["representative"], path=name, what=f"pair {pair}")
            parsed.append(Cluster(k, (representative,)))
        clustered[pair] = ClusteredPair(pair, ip_route_count, geo_path_count, tuple(parsed))
    stats = stats or FilterStats(len(clustered), 0, 0)
    if stats.surviving_pairs != len(clustered):
        message = f"filter_stats leave {stats.surviving_pairs} of {stats.input_pairs} input pairs"
        raise ParseError(f"{message}, but the file lists {len(clustered)}", path=name)
    return list(clustered.values()), radius, stats
