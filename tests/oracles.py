"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's own computation paths:
numpy trigonometry and dense sampling for geodesy, numpy statistics for
the pairwise score, an explicit set-based replay for the greedy
accumulation, and a linear scan for longest-prefix lookup. The
exceptions are the original code that a fast path replaced, kept verbatim
so that the fast path must match it bit for bit: the exhaustive MGDI
subset search (on the package's planar score and greedy accumulation),
the MGDI triangle-pair score on the generic planar distance,
the per-arc point-to-path distance, and the ``ipaddress``-based geodb row
parser with its per-row ``Coordinate`` construction.
"""

from __future__ import annotations

import csv
import itertools
import math
from ipaddress import AddressValueError, IPv4Address, IPv4Network, NetmaskValueError, ip_network
from typing import Sequence

import numpy as np

from geodiv.diversity import (
    DiversityConfig,
    _greedy_accumulate,
    _height_grid,
    _planar_point_to_path,
    diversity_from_delta,
    planar_pair_diversity,
    triangle_route,
)
from geodiv.errors import EmptyPath, ParseError
from geodiv.geodesy import EARTH_RADIUS_KM, Coordinate
from geodiv.geolocate import GeoDb

_DEGENERATE_NORM = 1e-12

EARTH_R = 6371.0


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
    h_max = math.sqrt(max(0.0, (longest_route_km / 2.0) ** 2 - (endpoint_distance_km / 2.0) ** 2))
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
    """The original haversine, written out."""
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
        return radius_km * math.asin(min(1.0, abs(s)))
    return min(d_pa, d_pb)


def point_to_path_distance_per_arc(
    p: Coordinate, nodes: Sequence[Coordinate], radius_km: float = EARTH_RADIUS_KM
) -> float:
    """The original point-to-path distance: every arc evaluated from
    scratch, with both endpoint distances and all three unit vectors."""
    if len(nodes) == 0:
        raise EmptyPath("path has no nodes")
    if len(nodes) == 1:
        return great_circle_distance_direct(p, nodes[0], radius_km)
    return min(
        _point_to_arc_distance(p, nodes[i], nodes[i + 1], radius_km)
        for i in range(len(nodes) - 1)
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


def load_geodb_per_row(path) -> GeoDb:
    """A snapshot loaded with one new ``Coordinate`` per row, through the
    original row parser."""
    db = GeoDb(())
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not "".join(row).strip():
                continue
            if line == 1 and tuple(col.strip().lower() for col in row) == ("cidr", "lat", "lon"):
                continue
            db._add(*parse_geodb_row_ipaddress(row, str(path), line))
    return db
