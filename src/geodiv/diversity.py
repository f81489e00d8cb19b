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
from typing import Callable, Iterable, NamedTuple, Sequence

from .cluster import delta_vector
from .errors import InvalidConfig
from .geodesy import EARTH_RADIUS_KM, _check_positive
from .geolocate import GeoPath

# Far beyond any planet, and far below where squared route lengths overflow.
MAX_EARTH_RADIUS_KM = 1e12
# MGDI builds a height grid of this many entries for every pair it scores.
MAX_MGDI_GRID_STEPS = 1001


class _Settings(NamedTuple):
    threshold_km: float = 50.0
    earth_radius_km: float = EARTH_RADIUS_KM
    mgdi_grid_steps: int = 21


class DiversityConfig(_Settings):
    """Knobs shared across the scoring pipeline."""

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> DiversityConfig:
        self = super().__new__(cls, *args, **kwargs)
        threshold, radius, steps = self
        if not (_is_number(threshold) and 0 < threshold < math.inf):
            raise InvalidConfig("threshold_km", f"must be positive and finite, got {threshold!r}")
        if not (_is_number(radius) and 0 < radius <= MAX_EARTH_RADIUS_KM):
            raise InvalidConfig(
                "earth_radius_km", f"must be positive and at most {MAX_EARTH_RADIUS_KM:g}, got {radius!r}"
            )
        if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 1):
            raise InvalidConfig("mgdi_grid_steps", f"must be a positive integer, got {steps!r}")
        if steps > MAX_MGDI_GRID_STEPS:
            raise InvalidConfig("mgdi_grid_steps", f"must be at most {MAX_MGDI_GRID_STEPS}, got {steps!r}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> DiversityConfig:
        # NamedTuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


def _is_number(value: object) -> bool:
    """Whether a value is a number, so neither a string nor ``True`` or
    ``False``, which Python would take for 1 or 0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class DiversityReport(NamedTuple):
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


def gdi(paths: Iterable[GeoPath], radius_km: float = EARTH_RADIUS_KM) -> float:
    """Geographic Diversity Index of a route set; 0 for fewer than 2 routes."""
    _check_positive("radius_km", radius_km)
    ordered = sorted(paths, key=GeoPath.sort_key)
    n = len(ordered)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = pair_diversity(ordered[i], ordered[j], radius_km)
    return _greedy_accumulate(matrix)


def _height_grid(h_max: float, steps: int) -> list[float]:
    if steps == 1 or h_max == 0.0:
        return [h_max]
    span = 2.0 * h_max
    return [-h_max + span * k / (steps - 1) for k in range(steps)]


def _triangle_scorer(endpoint_distance_km: float, heights: Sequence[float]) -> Callable[[int, int], float]:
    """``score(i, j)``: ``diversity_from_delta((0, a, 0, 0, b, 0))``, with
    ``a`` and ``b`` the planar point-to-path distances (``tests/oracles.py``)
    from the apex of the triangle route of height ``heights[i]`` to that of
    ``heights[j]`` and back, by the same float operations in the same
    order, on arc terms computed once per triangle; only the (exact)
    subtractions of a zero coordinate are left out."""
    x = endpoint_distance_km / 2.0
    run = endpoint_distance_km - x  # each second arc runs from (x, h) to (d, 0)
    arcs = [(h, x * x + h * h, 0.0 - h, run * run + (0.0 - h) * (0.0 - h)) for h in heights]
    hypot = math.hypot

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

    def score(i: int, j: int) -> float:
        a, b = apex_to(arcs[i][0], *arcs[j]), apex_to(arcs[j][0], *arcs[i])
        return diversity_from_delta((0.0, a, 0.0, 0.0, b, 0.0))

    return score


# Relative slack on the branch-and-bound cut, so that rounding in the bound
# itself can never prune the optimum.
_BOUND_SLACK = 1.0 + 1e-9


def _admit(
    row: Sequence[float], v: int, opening: tuple[float, int, int], candidates: Iterable[tuple[float, int]]
) -> list[tuple[float, int]]:
    """The candidates that may still join once route ``v`` (table row
    ``row``) is selected, each scored no higher than its pair with ``v``;
    one whose pair with ``v`` beats the opening pair ``(i, j)``, by a
    higher score or the same score at an earlier index pair, is dropped."""
    top, i, j = opening
    return [
        (min(s, row[k]), k)
        for s, k in candidates
        if row[k] < top or (row[k] == top and (min(k, v), max(k, v)) > (i, j))
    ]


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
    """Best GDI over the valid continuations of one partial greedy trajectory
    that hold the pinned route.

    ``candidates`` holds ``(score to the selected set, index)`` for every
    route that may still join without changing an earlier greedy choice;
    ``slots`` is how many more routes may join.
    """
    if not (has_pinned or any(k == pinned for _, k in candidates)):
        return best
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
            # Routes sorted after this pick leave the greedy's choice of it
            # unchanged (lower score, or a tie with a later index).
            rest = _admit(table[v], v, opening, candidates[pos + 1 :])
            best = _extend_trajectory(table, opening, pinned, slots - 1, value, rest, holds_pinned, best)
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
    for opening in openings:
        top, i, j = opening
        if (max_routes - 1) * top * _BOUND_SLACK <= best:
            break
        candidates = [(math.inf, k) for k in range(m) if k != i and k != j]
        candidates = _admit(table[j], j, opening, _admit(table[i], i, opening, candidates))
        best = _extend_trajectory(table, opening, pinned, max_routes - 2, top, candidates, pinned in (i, j), best)
    return best


# The pair score on (0, a, 0, 0, b, 0) at a = b, as a share of a: its peak
# over every vector whose entries are at most a.
_PEAK_SHARE = 7.0 / 27.0


def _best_three_route_set(
    score: Callable[[int, int], float],
    endpoint_distance_km: float,
    heights: Sequence[float],
    pinned_scores: Sequence[float],
    best: float,
) -> float:
    """Largest of ``best`` and the greedy GDI of every set ``{a, b, pinned}``,
    ``a < b`` indices of ``heights`` (the ascending grid without the pinned
    route), scoring a pair only while its set can still win.

    On three routes :func:`_greedy_accumulate` returns exactly the largest
    plus the smallest of the three pair scores, whatever its tie-breaks
    pick. Each apex lies within ``D = h_b - h_a`` of the other triangle,
    and the score of ``(0, k * M, 0, 0, M, 0)``, ``0 <= k <= 1``, is ``M *
    (31 + 33k - 3k^2 - 5k^3) / 216``, rising with ``k`` to ``7/27 * M``; so
    a pair scores at most ``u = 7/27 * D``, and with ``hi >= lo`` its pinned
    scores its set at most ``max(u, hi) + min(u, lo) <= u + max(u, top)``,
    ``top`` the largest pinned score. For each ``a``, ``b`` walks down from
    the widest gap, so ``u`` only falls, until ``u + max(u, top)`` cannot
    beat the best value found. Both cuts carry the search's relative slack.

    ``u`` adds 1e-12 of ``d/2 + h_max`` for the kernel's rounding. Once
    ``d/2 + h_max`` reaches 1e100 times ``d/2`` (or ``d/2`` is 0), products
    of coordinates can leave the normal float range, ``u`` is infinite and
    every pair is scored.
    """
    x = endpoint_distance_km / 2.0
    scale = x - heights[0]
    share = _PEAK_SHARE if scale < 1e100 * x else math.inf  # gaps are positive: u stays inf
    tolerance = 1e-12 * scale
    top = max(pinned_scores)
    for a, (h_a, p_a) in enumerate(zip(heights, pinned_scores)):
        for b in range(len(heights) - 1, a, -1):
            u = share * (heights[b] - h_a) + tolerance
            if (u + (u if u > top else top)) * _BOUND_SLACK <= best:
                break
            p_b = pinned_scores[b]
            hi, lo = (p_a, p_b) if p_a > p_b else (p_b, p_a)
            if ((u if u > hi else hi) + (u if u < lo else lo)) * _BOUND_SLACK > best:
                s = score(a, b)
                best = max(best, max(s, p_a, p_b) + min(s, p_a, p_b))
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
    the pinned one (duplicate routes never change a GDI). The search runs
    on the shape scaled by a power of two to d in [0.5, 1) (unless L/d
    passes ~2^511), so scaling both lengths by ``2**j`` scales it exactly.

    *Apex-only table.* All triangles share both endpoints, and each
    endpoint lies exactly (to the bit) on every other triangle, so a
    pair's distance vector is ``(0, a, 0, 0, b, 0)`` with ``a`` and ``b``
    the distances from each apex to the other triangle, the only two
    computed, by one scorer, through :func:`diversity_from_delta`.
    Two-route sets need only the pinned route's row, and three-route sets
    a few more entries (:func:`_best_three_route_set` walks each lower
    route's partners from the widest height gap down and scores a pair
    only while 7/27 of its gap still lets its set beat the best value
    found), so the full table is built only for four or more routes.

    *Trajectory search* (four or more routes). Instead of running the greedy
    on every subset, the search walks greedy trajectories: an opening pair,
    then one pick at a time. A pick is allowed only while it leaves every
    earlier greedy choice unchanged, including the strict-``>`` comparisons
    and the earliest-index tie-breaks. The prefixes of such a trajectory are
    exactly the greedy runs on their own sets, so the trajectories of at
    most ``n_routes`` routes that hold the pinned one are in one-to-one
    correspondence with the sets the definition ranges over, and sums
    accumulate in the greedy's own order. A route's score to the selected
    set only falls as the set grows, so a branch is cut once its sum plus
    the highest current candidate score for each free slot cannot beat the
    best value found; the cut carries a relative slack of 1e-9 so rounding
    never drops the optimum. The result is the exhaustive search's, bit for bit.
    """
    cfg = cfg or DiversityConfig()
    if not isinstance(n_routes, int) or isinstance(n_routes, bool):
        raise ValueError(f"route count must be an integer, got {n_routes!r}")
    if n_routes <= 1:
        return 0.0
    for name, km in (("endpoint distance", endpoint_distance_km), ("longest route", longest_route_km)):
        if not math.isfinite(km):
            raise ValueError(f"{name} must be finite, got {km}")
    if endpoint_distance_km <= 0:
        raise ValueError(f"endpoint distance must be positive, got {endpoint_distance_km}")
    if longest_route_km < endpoint_distance_km:
        raise ValueError(
            f"longest route ({longest_route_km} km) shorter than the endpoint "
            f"distance ({endpoint_distance_km} km)"
        )
    if (longest_route_km / 2.0) * (longest_route_km / 2.0) == math.inf:  # longest >= endpoint
        raise ValueError(f"longest route is too long to square, got {longest_route_km}")
    k = math.frexp(endpoint_distance_km)[1]
    if math.frexp(longest_route_km)[1] - k >= 512:  # L/d >= ~2^511: (L/2)^2 would overflow at d < 1
        k = 0
    d, half_l = math.ldexp(endpoint_distance_km, -k), math.ldexp(longest_route_km, -k) / 2.0
    h_max = math.sqrt(max(0.0, half_l * half_l - (d / 2.0) * (d / 2.0)))
    grid = sorted(set(_height_grid(h_max, cfg.mgdi_grid_steps)))
    pinned = len(grid) - 1  # +h_max is always the last grid value

    m = len(grid)
    score = _triangle_scorer(d, grid)
    pinned_scores = [score(i, pinned) for i in range(pinned)]
    best = max([0.0, *pinned_scores])
    max_routes = min(n_routes, m)
    if max_routes <= 2:
        return math.ldexp(best, k)
    if max_routes == 3:
        return math.ldexp(_best_three_route_set(score, d, grid[:-1], pinned_scores, best), k)

    table = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            table[i][j] = table[j][i] = score(i, j) if j < pinned else pinned_scores[i]
    return math.ldexp(_best_greedy_set(table, pinned, max_routes, best), k)


def compression_ratio(ip_route_count: int, cluster_count: int) -> float:
    """Distinct IP-level routes divided by resulting cluster count."""
    if ip_route_count < 1 or cluster_count < 1:
        raise ValueError("route and cluster counts must both be at least 1")
    if cluster_count > ip_route_count:
        raise ValueError(
            f"cluster count ({cluster_count}) exceeds route count ({ip_route_count})"
        )
    return ip_route_count / cluster_count
