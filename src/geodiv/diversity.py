"""Route diversity metrics for one endpoint pair.

The pairwise score of two geo-paths is ``(1 - Var'(delta)) * Mean(delta)``
where ``delta`` is their node-to-opposite-path distance vector and ``Var'``
is the population variance of the vector after dividing every entry by its
maximum (so the score stays in kilometers and scales linearly with
distance). A route set's GDI accumulates greedily: start from the most
diverse pair, then repeatedly pull in the route most diverse from the
already-selected set, summing the scores.

MGDI is the hypothetical ceiling for a given route count: in a planar
model, routes are two-segment triangles sharing the endpoints, apexes on
the perpendicular bisector; the longest route pins one apex at the maximum
height and the rest are grid-searched for the largest GDI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cluster import delta_vector
from .errors import EmptySet, InvalidConfig, InvalidCounts, InvalidGeometry
from .geodesy import EARTH_RADIUS_KM
from .geolocate import GeoPath

PlanarPoint = tuple[float, float]
PlanarPath = tuple[PlanarPoint, ...]


@dataclass(frozen=True)
class DiversityConfig:
    """Knobs shared across the scoring pipeline."""

    threshold_km: float = 50.0
    earth_radius_km: float = EARTH_RADIUS_KM
    mgdi_grid_steps: int = 21

    def __post_init__(self) -> None:
        if self.threshold_km <= 0:
            raise InvalidConfig("threshold_km", f"must be positive, got {self.threshold_km}")
        if self.earth_radius_km <= 0:
            raise InvalidConfig("earth_radius_km", f"must be positive, got {self.earth_radius_km}")
        if self.mgdi_grid_steps < 1:
            raise InvalidConfig(
                "mgdi_grid_steps", f"must be a positive integer, got {self.mgdi_grid_steps}"
            )


@dataclass(frozen=True)
class DiversityReport:
    """Per-endpoint-pair scoring result."""

    src: str
    dst: str
    ip_route_count: int
    geo_path_count: int
    cluster_count: int
    compression_ratio: float
    gdi_km: float
    mgdi_km: float
    gdi_over_mgdi: float


def diversity_from_delta(values: Sequence[float]) -> float:
    """Evaluate the pairwise score directly on a distance vector."""
    n = len(values)
    if n == 0:
        raise ValueError("empty distance vector")
    peak = max(values)
    if peak <= 0.0:
        return 0.0
    normalized = [v / peak for v in values]
    norm_mean = math.fsum(normalized) / n
    variance = math.fsum((x - norm_mean) ** 2 for x in normalized) / n
    return (1.0 - variance) * (math.fsum(values) / n)


def pair_diversity(p: GeoPath, l: GeoPath, radius_km: float = EARTH_RADIUS_KM) -> float:
    """Diversity of two geo-paths, in kilometers; symmetric, 0 for identical paths."""
    return diversity_from_delta(delta_vector(p, l, radius_km))


def set_diversity(p: GeoPath, routes: Iterable[GeoPath], radius_km: float = EARTH_RADIUS_KM) -> float:
    """Minimum pairwise diversity between ``p`` and any member of ``routes``."""
    best = None
    for other in routes:
        score = pair_diversity(p, other, radius_km)
        if best is None or score < best:
            best = score
    if best is None:
        raise EmptySet("set_diversity needs at least one route in the set")
    return best


def _greedy_accumulate(matrix: Sequence[Sequence[float]]) -> float:
    """Greedy GDI on a symmetric pairwise-score matrix in canonical row order.

    Ties in every argmax go to the earliest canonical index.
    """
    n = len(matrix)
    if n <= 1:
        return 0.0
    best = -1.0
    best_i = best_j = 0
    for i in range(n):
        row = matrix[i]
        for j in range(i + 1, n):
            if row[j] > best:
                best, best_i, best_j = row[j], i, j
    total = best
    selected = [False] * n
    selected[best_i] = selected[best_j] = True
    to_selected = [min(matrix[k][best_i], matrix[k][best_j]) for k in range(n)]
    for _ in range(n - 2):
        pick = -1
        pick_score = -1.0
        for k in range(n):
            if not selected[k] and to_selected[k] > pick_score:
                pick_score = to_selected[k]
                pick = k
        total += pick_score
        selected[pick] = True
        row = matrix[pick]
        for k in range(n):
            if not selected[k] and row[k] < to_selected[k]:
                to_selected[k] = row[k]
    return total


def _greedy_gdi(ordered: Sequence, score: Callable[..., float]) -> float:
    """Greedy GDI of routes in canonical order, scored pairwise by ``score``."""
    n = len(ordered)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = score(ordered[i], ordered[j])
    return _greedy_accumulate(matrix)


def gdi(paths: Iterable[GeoPath], radius_km: float = EARTH_RADIUS_KM) -> float:
    """Geographic Diversity Index of a route set; 0 for fewer than 2 routes."""
    ordered = sorted(paths, key=GeoPath.sort_key)
    return _greedy_gdi(ordered, lambda p, l: pair_diversity(p, l, radius_km))


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
    return _greedy_gdi(sorted(paths), planar_pair_diversity)


def _height_grid(h_max: float, steps: int) -> list[float]:
    if steps == 1 or h_max == 0.0:
        return [h_max]
    span = 2.0 * h_max
    return [-h_max + span * k / (steps - 1) for k in range(steps)]


def triangle_route(endpoint_distance_km: float, height_km: float) -> PlanarPath:
    """Two-segment route from (0,0) to (d,0) via an apex on the bisector."""
    return ((0.0, 0.0), (endpoint_distance_km / 2.0, height_km), (endpoint_distance_km, 0.0))


def _triangle_pair_scores(
    endpoint_distance_km: float, heights: Sequence[float], pairs: Iterable[tuple[int, int]]
) -> list[float]:
    """``diversity_from_delta([0, a, 0, 0, b, 0])`` for each ``(i, j)`` in
    ``pairs``, with ``a`` and ``b`` the :func:`_planar_point_to_path`
    distances from the apex of the triangle route of height ``heights[i]``
    to that of ``heights[j]`` and back. The same float operations run in
    the same order, on arc terms computed once per triangle; only the
    (exact) subtractions of a zero coordinate are left out."""
    x = endpoint_distance_km / 2.0
    run = endpoint_distance_km - x  # each second arc runs from (x, h) to (d, 0)
    arcs = [(h, x * x + h * h, 0.0 - h, run * run + (0.0 - h) * (0.0 - h)) for h in heights]
    hypot, fsum = math.hypot, math.fsum

    def apex_to(hp: float, hq: float, sq1: float, rise: float, sq2: float) -> float:
        if sq1 == 0.0:
            d1 = hypot(x, hp)
        else:
            t = (x * x + hp * hq) / sq1
            t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0  # min(1.0, max(0.0, t))
            d1 = hypot(x - (0.0 + t * x), hp - (0.0 + t * hq))
        if sq2 == 0.0:
            d2 = hypot(x - x, hp - hq)
        else:
            t = (0.0 * run + (hp - hq) * rise) / sq2
            t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
            d2 = hypot(x - (x + t * run), hp - (hq + t * rise))
        return d2 if d2 < d1 else d1

    scores = []
    for i, j in pairs:
        a, b = apex_to(arcs[i][0], *arcs[j]), apex_to(arcs[j][0], *arcs[i])
        peak = max(0.0, a, b)
        if peak <= 0.0:
            scores.append(0.0)
            continue
        na, nb = a / peak, b / peak
        mean = fsum((0.0, na, 0.0, 0.0, nb, 0.0)) / 6
        z = (0.0 - mean) ** 2
        variance = fsum((z, (na - mean) ** 2, z, z, (nb - mean) ** 2, z)) / 6
        scores.append((1.0 - variance) * (fsum((0.0, a, 0.0, 0.0, b, 0.0)) / 6))
    return scores


# Relative slack on the branch-and-bound cut, so that rounding in the bound
# itself can never prune the optimum.
_BOUND_SLACK = 1.0 + 1e-9


def _extend_trajectory(
    table: Sequence[Sequence[float]],
    opening: tuple[float, int, int],
    pinned: int,
    slots: int,
    total: float,
    candidates: list[tuple[float, int]],
    has_pinned: bool,
    best: float,
) -> float:
    """Best GDI over the valid continuations of one partial greedy trajectory.

    ``candidates`` holds ``(score to the selected set, index)`` for every
    route that may still join without changing an earlier greedy choice;
    ``slots`` is how many more routes may join.
    """
    top, i, j = opening
    candidates.sort(key=lambda c: (-c[0], c[1]))
    scores = [score for score, _ in candidates]
    for pos, (score, v) in enumerate(candidates):
        # Later picks come from later candidates and score no higher than
        # they do now, so this branch and every later one stay below this.
        if (total + sum(scores[pos : pos + slots])) * _BOUND_SLACK <= best:
            break
        value = total + score
        holds_pinned = has_pinned or v == pinned
        if holds_pinned and value > best:
            best = value
        if slots > 1:
            row = table[v]
            # Routes sorted after this pick leave the greedy's choice of it
            # unchanged (lower score, or a tie with a later index); drop
            # those that would form a pair beating the opening pair.
            rest = [
                (min(s, row[k]), k)
                for s, k in candidates[pos + 1 :]
                if row[k] < top or (row[k] == top and (min(k, v), max(k, v)) > (i, j))
            ]
            if holds_pinned or any(k == pinned for _, k in rest):
                best = _extend_trajectory(
                    table, opening, pinned, slots - 1, value, rest, holds_pinned, best
                )
        if v == pinned and not has_pinned:
            break  # every later branch leaves the pinned route out
    return best


def _best_greedy_set(
    table: Sequence[Sequence[float]], pinned: int, max_routes: int, best: float
) -> float:
    """Largest of ``best`` and the greedy GDI (:func:`_greedy_accumulate`) of
    every index set that holds ``pinned`` and has 3 to ``max_routes`` (at
    least 3) members, found by walking greedy trajectories; ``table`` is
    symmetric and non-negative."""
    m = len(table)
    openings = sorted(
        ((table[i][j], i, j) for i in range(m) for j in range(i + 1, m)), key=lambda o: -o[0]
    )
    for top, i, j in openings:
        if (max_routes - 1) * top * _BOUND_SLACK <= best:
            break
        row_i, row_j = table[i], table[j]
        candidates = [
            (min(row_i[k], row_j[k]), k)
            for k in range(m)
            if k != i
            and k != j
            and all(
                table[k][x] < top or (table[k][x] == top and (min(k, x), max(k, x)) > (i, j))
                for x in (i, j)
            )
        ]
        has_pinned = pinned in (i, j)
        if has_pinned or any(k == pinned for _, k in candidates):
            best = _extend_trajectory(
                table, (top, i, j), pinned, max_routes - 2, top, candidates, has_pinned, best
            )
    return best


def mgdi(
    n_routes: int,
    endpoint_distance_km: float,
    longest_route_km: float,
    cfg: DiversityConfig | None = None,
) -> float:
    """Hypothetical maximum GDI for ``n_routes`` triangle-shaped routes.

    The apex height of each route may range over +/- h_max where
    ``h_max = sqrt((longest/2)^2 - (endpoint_distance/2)^2)``; the longest
    route is pinned at +h_max and the others take heights on a signed grid
    of ``cfg.mgdi_grid_steps`` values. The result is the best greedy GDI
    over every set of at most ``n_routes`` distinct grid routes that holds
    the pinned one (duplicate routes never change a GDI).

    *Apex-only table.* All triangles share both endpoints, and each
    endpoint lies exactly (to the bit) on every other triangle, so a
    pair's distance vector is ``(0, a, 0, 0, b, 0)`` with ``a`` and ``b``
    the distances from each apex to the other triangle. Only those two are
    computed, and the score is evaluated on the same vector as
    :func:`planar_pair_diversity` would build. Two-route sets need only
    the pinned route's row, so the full table is built only for three or
    more routes.

    *Trajectory search.* Instead of running the greedy on every subset,
    the search walks greedy trajectories: an opening pair, then one pick
    at a time. A pick is allowed only while it leaves every earlier
    greedy choice unchanged, including the strict-``>`` comparisons and
    the earliest-index tie-breaks. The prefixes of such a trajectory are
    exactly the greedy runs on their own sets, so the trajectories of at
    most ``n_routes`` routes that hold the pinned one are in one-to-one
    correspondence with the sets the definition ranges over, and sums
    accumulate in the greedy's own order. A route's score to the selected
    set only falls as the set grows, so a branch is cut once its sum plus
    the highest current candidate score for each free slot cannot beat
    the best value found; the cut carries a relative slack of 1e-9 so
    rounding never drops the optimum. The result equals the exhaustive
    subset search bit for bit.
    """
    cfg = cfg or DiversityConfig()
    if n_routes <= 1:
        return 0.0
    if endpoint_distance_km <= 0:
        raise InvalidGeometry(f"endpoint distance must be positive, got {endpoint_distance_km}")
    if longest_route_km < endpoint_distance_km:
        raise InvalidGeometry(
            f"longest route ({longest_route_km} km) shorter than the endpoint "
            f"distance ({endpoint_distance_km} km)"
        )
    h_max = math.sqrt(max(0.0, (longest_route_km / 2.0) ** 2 - (endpoint_distance_km / 2.0) ** 2))
    grid = sorted(set(_height_grid(h_max, cfg.mgdi_grid_steps)))
    pinned = len(grid) - 1  # +h_max is always the last grid value

    m = len(grid)
    pinned_scores = _triangle_pair_scores(endpoint_distance_km, grid, [(i, pinned) for i in range(pinned)])
    best = max([0.0, *pinned_scores])
    max_routes = min(n_routes, m)
    if max_routes <= 2:
        return best

    table = [[0.0] * m for _ in range(m)]
    for i, score in enumerate(pinned_scores):
        table[i][pinned] = table[pinned][i] = score
    pairs = [(i, j) for i in range(m) for j in range(i + 1, pinned)]
    for (i, j), score in zip(pairs, _triangle_pair_scores(endpoint_distance_km, grid, pairs)):
        table[i][j] = table[j][i] = score
    return _best_greedy_set(table, pinned, max_routes, best)


def compression_ratio(ip_route_count: int, cluster_count: int) -> float:
    """Distinct IP-level routes divided by resulting cluster count."""
    if ip_route_count < 1 or cluster_count < 1:
        raise InvalidCounts("route and cluster counts must both be at least 1")
    if cluster_count > ip_route_count:
        raise InvalidCounts(
            f"cluster count ({cluster_count}) exceeds route count ({ip_route_count})"
        )
    return ip_route_count / cluster_count
