"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's own computation paths:
numpy trigonometry and dense sampling for geodesy, numpy statistics for
the pairwise score, an explicit set-based replay for the greedy
accumulation, and a linear scan for longest-prefix lookup. The
exceptions are the original code that a fast path replaced, kept verbatim
so that the fast path must match it bit for bit: the exhaustive MGDI
subset search (on the package's planar score and greedy accumulation),
the trajectory search on the full apex table that three-route MGDI no
longer builds, the MGDI triangle-pair score on the generic planar distance,
the unit-vector angle and the per-arc point-to-path distance (written out
on this module's own vector helpers, with the haversine kept beside them
as a second formula for tolerance checks), the ``geo_equal`` scan that ran the
spherical kernel on each arc until one accepted a node, the
``ipaddress``-based geodb row parser with its per-row ``Coordinate``
construction and ``csv`` loop, and
the per-line trace file parser with its own line parser, so that the
package's one record checker is not its own reference. The two file
oracles find a file's first bad byte from its bytes, run on the lines
before that byte's line, and word the byte's error with the original
``not_utf8``, so that the package's line source is not its own reference
either. The planar model
that MGDI is defined on (triangle routes, the planar pair score and GDI) is the
reference the MGDI kernel is checked against.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from ipaddress import AddressValueError, IPv4Address, IPv4Network, NetmaskValueError, ip_network
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from geodiv.diversity import (
    DiversityConfig,
    _best_greedy_set,
    _greedy_accumulate,
    _height_grid,
    _triangle_scorer,
    diversity_from_delta,
)
from geodiv.errors import ParseError, invalid_json
from geodiv.geodesy import EARTH_RADIUS_KM, Coordinate, PreparedPath, PreparedPoint, _angle, _cross_track
from geodiv.geolocate import GeoDb, GeoPath
from geodiv.traces import _MAX_NESTING, UNRESPONSIVE, TraceRecord, _too_deep, parse_ipv4

_DEGENERATE_NORM = 1e-12

EARTH_R = 6371.0

PlanarPoint = tuple[float, float]
PlanarPath = tuple[PlanarPoint, ...]


def _planar_point_to_path(point: PlanarPoint, path: PlanarPath) -> float:
    px, py = point
    best = math.inf
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        dx, dy = bx - ax, by - ay
        seg_sq = dx * dx + dy * dy
        if seg_sq == 0.0:
            dist = math.hypot(px - ax, py - ay)
        else:
            t = ((px - ax) * dx + (py - ay) * dy) / seg_sq
            t = min(1.0, max(0.0, t))
            dist = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
        if dist < best:
            best = dist
    return best


def planar_pair_diversity(p: PlanarPath, l: PlanarPath) -> float:
    """Pairwise diversity for paths given as (x, y) kilometer coordinates."""
    values = [_planar_point_to_path(u, l) for u in p]
    values += [_planar_point_to_path(u, p) for u in l]
    return diversity_from_delta(values)


def planar_gdi(paths: Iterable[PlanarPath]) -> float:
    """GDI for planar paths; canonical order is lexicographic on coordinates."""
    ordered = sorted(paths)
    n = len(ordered)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = planar_pair_diversity(ordered[i], ordered[j])
    return _greedy_accumulate(matrix)


def triangle_route(endpoint_distance_km: float, height_km: float) -> PlanarPath:
    """Two-segment route from (0,0) to (d,0) via an apex on the bisector."""
    return ((0.0, 0.0), (endpoint_distance_km / 2.0, height_km), (endpoint_distance_km, 0.0))


def _unit(lat: float, lon: float) -> np.ndarray:
    phi, lam = math.radians(lat), math.radians(lon)
    return np.array(
        [math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)]
    )


def sample_arc(a: tuple[float, float], b: tuple[float, float], step_km: float = 1.0) -> np.ndarray:
    """Points every ~step_km along the great-circle arc from a to b,
    as an (n, 3) array of unit vectors (endpoints included)."""
    va, vb = _unit(*a), _unit(*b)
    omega = math.acos(float(np.clip(np.dot(va, vb), -1.0, 1.0)))
    if omega == 0.0:
        return va[None, :]
    n = max(2, int(math.ceil(EARTH_R * omega / step_km)) + 1)
    t = np.linspace(0.0, 1.0, n)
    sin_omega = math.sin(omega)
    pts = (np.sin((1.0 - t) * omega)[:, None] * va + np.sin(t * omega)[:, None] * vb) / sin_omega
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def min_distance_to_samples(p: tuple[float, float], samples: np.ndarray) -> float:
    """Minimum central-angle distance (km) from p to the sampled points."""
    vp = _unit(*p)
    cos_angles = np.clip(samples @ vp, -1.0, 1.0)
    return float(EARTH_R * np.min(np.arccos(cos_angles)))


def sampled_point_to_polyline(
    p: tuple[float, float], nodes: list[tuple[float, float]], step_km: float = 1.0
) -> float:
    """Dense-sampling distance from p to a polyline of (lat, lon) nodes."""
    best = math.inf
    if len(nodes) == 1:
        return min_distance_to_samples(p, _unit(*nodes[0])[None, :])
    for a, b in zip(nodes, nodes[1:]):
        best = min(best, min_distance_to_samples(p, sample_arc(a, b, step_km)))
    return best


def delta_score(values) -> float:
    """Direct evaluation of (1 - Var'(delta)) * Mean(delta) with numpy."""
    d = np.asarray(values, dtype=float)
    peak = d.max()
    if peak <= 0.0:
        return 0.0
    return float((1.0 - np.var(d / peak)) * d.mean())


def greedy_replay(items: list, pair_score) -> float:
    """Step-by-step replay of the greedy accumulation on explicit sets.

    ``items`` must already be in canonical order; ties keep the earliest
    pair/index, matching the production tie-break.
    """
    n = len(items)
    if n <= 1:
        return 0.0
    remaining = list(range(n))
    best_pair = None
    best_score = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            score = pair_score(items[i], items[j])
            if score > best_score:
                best_score = score
                best_pair = (i, j)
    selected = list(best_pair)
    remaining = [k for k in remaining if k not in selected]
    total = best_score
    while remaining:
        step_best = None
        step_score = -1.0
        for k in remaining:
            to_set = min(pair_score(items[k], items[s]) for s in selected)
            if to_set > step_score:
                step_score = to_set
                step_best = k
        total += step_score
        selected.append(step_best)
        remaining.remove(step_best)
    return total


def brute_force_lookup(
    entries: list[tuple[IPv4Network, object]], ip: str
) -> object | None:
    """Linear scan longest-prefix match over (network, value) entries."""
    address = IPv4Address(ip)
    best = None
    best_len = -1
    for network, value in entries:
        if address in network and network.prefixlen > best_len:
            best = value
            best_len = network.prefixlen
    return best


def mgdi_exhaustive(n_routes: int, endpoint_distance_km: float, longest_route_km: float, cfg=None) -> float:
    """The original MGDI search: the full planar pair table for the grid
    routes, then the greedy GDI of every height subset holding the pinned
    route, via ``itertools.combinations``."""
    cfg = cfg or DiversityConfig()
    if n_routes <= 1:
        return 0.0
    half_l, half_d = longest_route_km / 2.0, endpoint_distance_km / 2.0
    h_max = math.sqrt(max(0.0, half_l * half_l - half_d * half_d))
    grid = sorted(set(_height_grid(h_max, cfg.mgdi_grid_steps)))
    pinned = len(grid) - 1  # +h_max is always the last grid value
    routes = [triangle_route(endpoint_distance_km, h) for h in grid]

    m = len(grid)
    table = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            score = planar_pair_diversity(routes[i], routes[j])
            table[i][j] = table[j][i] = score

    return best_greedy_set_exhaustive(table, pinned, n_routes)


def mgdi_full_table(n_routes: int, endpoint_distance_km: float, longest_route_km: float, cfg=None) -> float:
    """The trajectory search on the full apex table, as ``mgdi`` ran it for
    every route count before the three-route search replaced it there."""
    cfg = cfg or DiversityConfig()
    if n_routes <= 1:
        return 0.0
    half_l, half_d = longest_route_km / 2.0, endpoint_distance_km / 2.0
    h_max = math.sqrt(max(0.0, half_l * half_l - half_d * half_d))
    grid = sorted(set(_height_grid(h_max, cfg.mgdi_grid_steps)))
    pinned = len(grid) - 1
    m = len(grid)
    score = _triangle_scorer(endpoint_distance_km, grid)
    table = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            table[i][j] = table[j][i] = score(i, j)
    best = max([0.0] + [table[i][pinned] for i in range(pinned)])
    if min(n_routes, m) <= 2:
        return best
    return _best_greedy_set(table, pinned, min(n_routes, m), best)


def mgdi_pair_score(endpoint_distance_km: float, h_i: float, h_j: float) -> float:
    """The original score of two MGDI triangle routes: both triangles
    built, each apex measured against the other triangle with the generic
    planar point-to-path distance, then the six-entry delta vector scored."""
    routes = [triangle_route(endpoint_distance_km, h) for h in (h_i, h_j)]
    i, j = 0, 1
    a = _planar_point_to_path(routes[i][1], routes[j])
    b = _planar_point_to_path(routes[j][1], routes[i])
    return diversity_from_delta([0.0, a, 0.0, 0.0, b, 0.0])


def best_greedy_set_exhaustive(table, pinned: int, n_routes: int) -> float:
    """Largest greedy GDI over every index set of at most ``n_routes``
    members that holds ``pinned``; 0 when there is none."""
    m = len(table)
    free = [i for i in range(m) if i != pinned]
    best = 0.0
    for k in range(1, min(n_routes - 1, len(free)) + 1):
        for combo in itertools.combinations(free, k):
            idxs = sorted(combo + (pinned,))
            sub = [[table[a][b] for b in idxs] for a in idxs]
            value = _greedy_accumulate(sub)
            if value > best:
                best = value
    return best


def great_circle_distance_direct(a: Coordinate, b: Coordinate, radius_km: float = EARTH_RADIUS_KM) -> float:
    """The angle between the two unit vectors, ``atan2(|u x v|, u . v)``,
    written out."""
    u, v = _unit_vector(a), _unit_vector(b)
    return radius_km * math.atan2(_norm(_cross(u, v)), _dot(u, v))


def great_circle_distance_haversine(a: Coordinate, b: Coordinate, radius_km: float = EARTH_RADIUS_KM) -> float:
    """The haversine, written out: a second formula, for tolerance checks."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(h)))


def _unit_vector(c: Coordinate) -> tuple[float, float, float]:
    phi = math.radians(c.lat)
    lam = math.radians(c.lon)
    cos_phi = math.cos(phi)
    return (cos_phi * math.cos(lam), cos_phi * math.sin(lam), math.sin(phi))


def _cross(u: tuple[float, float, float], v: tuple[float, float, float]) -> tuple[float, float, float]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u: tuple[float, float, float]) -> float:
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def _point_to_arc_distance(p: Coordinate, a: Coordinate, b: Coordinate, radius_km: float) -> float:
    if p == a or p == b:
        return 0.0
    d_pa = great_circle_distance_direct(p, a, radius_km)
    if a == b:
        return d_pa
    d_pb = great_circle_distance_direct(p, b, radius_km)

    va = _unit_vector(a)
    vb = _unit_vector(b)
    vp = _unit_vector(p)

    n = _cross(va, vb)
    nn = _norm(n)
    if nn < _DEGENERATE_NORM:
        # Coincident or antipodal endpoints: no unique great circle.
        return min(d_pa, d_pb)
    n_hat = (n[0] / nn, n[1] / nn, n[2] / nn)

    # Signed sine of the cross-track angle.
    s = _dot(vp, n_hat)
    proj = (vp[0] - s * n_hat[0], vp[1] - s * n_hat[1], vp[2] - s * n_hat[2])
    pn = _norm(proj)
    if pn < _DEGENERATE_NORM:
        # p sits at a pole of the great circle: equidistant from the whole arc.
        return min(d_pa, d_pb)
    foot = (proj[0] / pn, proj[1] / pn, proj[2] / pn)

    within = (
        _dot(_cross(va, foot), n_hat) >= -_DEGENERATE_NORM
        and _dot(_cross(foot, vb), n_hat) >= -_DEGENERATE_NORM
    )
    if within:
        return radius_km * math.atan2(abs(s), pn)
    return min(d_pa, d_pb)


def point_to_path_distance_per_arc(
    p: Coordinate, nodes: Sequence[Coordinate], radius_km: float = EARTH_RADIUS_KM
) -> float:
    """The original point-to-path distance: every arc evaluated from
    scratch, with both endpoint distances and all three unit vectors."""
    if len(nodes) == 0:
        raise ValueError("path has no nodes")
    if len(nodes) == 1:
        return great_circle_distance_direct(p, nodes[0], radius_km)
    return min(
        _point_to_arc_distance(p, nodes[i], nodes[i + 1], radius_km)
        for i in range(len(nodes) - 1)
    )


def prepared_distance(path: PreparedPath, p: PreparedPoint, radius_km: float, stop_at_km: float = -1.0) -> float:
    """The original ``PreparedPath.distance``, with its early exit: the
    minimum distance from ``p`` to the polyline, or the first arc distance
    found that is at most ``stop_at_km``."""
    # Equal unit vectors (-0.0 == 0.0 included) are 0.0 apart by _angle
    # too; every arc distance is at least 0.0.
    if p in path.points:
        return 0.0
    points = path.points
    a = points[0]
    if len(points) == 1:
        return radius_km * _angle(p, a)
    best = math.inf
    d_a = None
    for b, normal in zip(points[1:], path.normals):
        d_b = None
        d = None if normal is None else _cross_track(p, a, b, normal, radius_km)
        if d is None:
            if d_a is None:
                d_a = radius_km * _angle(p, a)
            d_b = radius_km * _angle(p, b)
            d = min(d_a, d_b)
        if d <= stop_at_km:
            return d
        if d < best:
            best = d
        a, d_a = b, d_b
    return best


def geo_equal_scan(p: GeoPath, l: GeoPath, threshold_km: float, radius_km: float = EARTH_RADIUS_KM) -> bool:
    """The original ``geo_equal``: a node passes at the first arc within the
    threshold, and the test fails at the first node that does not pass."""
    if not 0 < threshold_km < math.inf:
        raise ValueError(f"threshold_km must be positive and finite, got {threshold_km}")
    pp, lp = p.prepared, l.prepared
    return all(prepared_distance(lp, u, radius_km, threshold_km) <= threshold_km for u in pp.points) and all(
        prepared_distance(pp, u, radius_km, threshold_km) <= threshold_km for u in lp.points
    )


def parse_geodb_row_ipaddress(row: list[str], path: str | None, line: int) -> tuple[int, int, Coordinate]:
    """The original geodb row parser, on ``ip_network``; returns (network
    address, prefix length, location)."""
    if len(row) != 3:
        raise ParseError(f"expected 3 columns, got {len(row)}", path=path, line=line)
    cidr_text, lat_text, lon_text = (col.strip() for col in row)
    try:
        network = ip_network(cidr_text, strict=False)
    except (ValueError, AddressValueError, NetmaskValueError) as exc:
        raise ParseError(f"invalid CIDR {cidr_text!r}: {exc}", path=path, line=line) from exc
    if not isinstance(network, IPv4Network):
        raise ParseError(f"not an IPv4 prefix: {cidr_text!r}", path=path, line=line)
    try:
        location = Coordinate(lat=float(lat_text), lon=float(lon_text))
    except ValueError as exc:
        raise ParseError(f"invalid coordinates: {exc}", path=path, line=line) from exc
    return int(network.network_address), network.prefixlen, location


def not_utf8(path: str | Path) -> ParseError:
    """The error for a file that is not UTF-8, at its first bad byte. A
    text read decodes in blocks, so the file is read again as bytes. The
    byte's line counts every ``\\r\\n``, ``\\r`` and ``\\n`` before it
    (changed since: it counted ``\\n`` alone)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return ParseError("not valid UTF-8", path=str(path))  # changed since
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 at byte offset {exc.start} (0x{data[exc.start]:02x}: {exc.reason})"
        # The bad byte is neither \r nor \n, so it ends the last piece.
        return ParseError(reason, path=str(path), line=len(data[: exc.start + 1].splitlines()))


def _lines_to_bad_byte(path, newline):
    """The lines of ``path`` as ``open(path, newline=newline,
    encoding="utf-8")`` reads them, up to the line of the file's first byte
    that is not UTF-8, lines ending at ``\\r\\n``, ``\\r`` or ``\\n``; then
    the original ``not_utf8`` error of that byte. A parser's error on an
    earlier line comes first."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = b"".join(data[: exc.start + 1].splitlines(True)[:-1]).decode("utf-8")
        yield from io.StringIO(good, newline=newline)
        raise not_utf8(path) from None
    yield from io.StringIO(text, newline=newline)


def load_geodb_per_row(path) -> GeoDb:
    """A snapshot loaded with one new ``Coordinate`` per row, through the
    original row parser, by the original ``csv`` loop: each row numbered
    by its place among the rows, and the file's errors worded as the
    original loader worded them."""
    db = GeoDb()
    name = str(path)
    reader = csv.reader(_lines_to_bad_byte(path, newline=""))
    try:
        for line, row in enumerate(reader, start=1):
            if not "".join(row).strip():
                continue
            if line == 1 and tuple(col.strip().lower() for col in row) == ("cidr", "lat", "lon"):
                continue
            db._add(*parse_geodb_row_ipaddress(row, name, line), name, line)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", path=name, line=reader.line_num) from None
    return db


def _check_address(
    value: object, field: str, valid: set[str], path: str | None, line: int | None
) -> str:
    """``value`` if it is an IPv4 address string; ``valid`` holds the strings
    already accepted, so each distinct string is parsed once."""
    if not isinstance(value, str):
        raise ParseError(f"field {field!r} must be a string", path=path, line=line)
    if value not in valid:
        try:
            parse_ipv4(value)
        except AddressValueError as exc:
            raise ParseError(f"field {field!r}: {exc}", path=path, line=line) from exc
        valid.add(value)
    return value


def parse_trace_line(
    line: str, *, path: str | None = None, line_number: int | None = None, valid: set[str] | None = None
) -> TraceRecord:
    """Parse one JSONL trace record, keeping hop order and unresponsive
    markers. ``valid`` holds address strings already accepted, which are
    not parsed again, and gains the ones this record adds."""
    valid = set() if valid is None else valid
    if len(line) > _MAX_NESTING and _too_deep(line):
        raise ParseError("invalid JSON: nested too deeply", path=path, line=line_number)
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise invalid_json(exc, path, line_number) from exc
    if not isinstance(obj, dict):
        raise ParseError("trace record must be a JSON object", path=path, line=line_number)
    for key in ("src", "dst", "hops"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}", path=path, line=line_number)
    src = _check_address(obj["src"], "src", valid, path, line_number)
    dst = _check_address(obj["dst"], "dst", valid, path, line_number)
    raw_hops = obj["hops"]
    if not isinstance(raw_hops, list):
        raise ParseError("field 'hops' must be an array", path=path, line=line_number)
    for i, hop in enumerate(raw_hops):
        if isinstance(hop, str) and (hop in valid or hop == UNRESPONSIVE):
            continue
        _check_address(hop, f"hops[{i}]", valid, path, line_number)
    return TraceRecord(src=src, dst=dst, hops=tuple(raw_hops))


def parse_trace_file_per_line(path: str | Path) -> list[TraceRecord]:
    """The original trace file parser: one ``parse_trace_line`` per line,
    the original one above, not the package's."""
    records = []
    valid: set[str] = set()
    name = str(path)
    for number, line in enumerate(_lines_to_bad_byte(path, newline=None), start=1):
        if not line.strip():
            continue
        records.append(parse_trace_line(line, path=name, line_number=number, valid=valid))
    return records
