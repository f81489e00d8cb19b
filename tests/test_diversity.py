import functools
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geodiv import (
    Coordinate,
    DiversityConfig,
    GeoPath,
    gdi,
    mgdi,
    pair_diversity,
)
import geodiv.diversity as diversity
from geodiv.errors import InvalidConfig
from geodiv.diversity import (
    _BOUND_SLACK,
    _PEAK_SHARE,
    _best_greedy_set,
    _height_grid,
    _triangle_scorer,
    compression_ratio,
    diversity_from_delta,
)
from oracles import (
    apex_distance_squared,
    best_greedy_set_exhaustive,
    delta_score,
    greedy_replay,
    mgdi_exhaustive,
    mgdi_full_table,
    mgdi_pair_score,
    planar_gdi,
    triangle_route,
)

deltas = st.lists(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False), min_size=1, max_size=20
)


def _path(*latlon: tuple[float, float]) -> GeoPath:
    return GeoPath(nodes=tuple(Coordinate(lat, lon) for lat, lon in latlon))


def _random_paths(rng: random.Random, n: int, max_nodes: int = 4) -> list[GeoPath]:
    paths = []
    for _ in range(n):
        length = rng.randint(2, max_nodes)
        nodes = []
        while len(nodes) < length:
            c = Coordinate(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if not nodes or c != nodes[-1]:
                nodes.append(c)
        paths.append(GeoPath(nodes=tuple(nodes)))
    return paths


def test_score_of_zero_vector_is_zero():
    assert diversity_from_delta([0.0, 0.0, 0.0]) == 0.0


def test_score_of_constant_vector_is_the_constant():
    assert abs(diversity_from_delta([70.0] * 5) - 70.0) < 1e-12


def test_score_hand_computed_example():
    # {0, 0, 100, 100}: normalized {0,0,1,1}, population variance 0.25,
    # score 0.75 * 50 = 37.5.
    assert abs(diversity_from_delta([0.0, 0.0, 100.0, 100.0]) - 37.5) < 1e-12


def test_score_rejects_empty_vector():
    with pytest.raises(ValueError):
        diversity_from_delta([])


@given(deltas)
def test_score_matches_numpy_oracle(values):
    got = diversity_from_delta(values)
    want = delta_score(values)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(deltas)
def test_score_scales_linearly(values):
    base = diversity_from_delta(values)
    for c in (0.5, 2.0, 10.0):
        scaled = diversity_from_delta([c * v for v in values])
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)


@given(deltas)
def test_score_bounds(values):
    mean = sum(values) / len(values)
    score = diversity_from_delta(values)
    assert 0.0 <= score <= mean + 1e-9
    assert score >= 0.75 * mean - 1e-9


def test_pair_diversity_identical_paths():
    p = _path((0, 0), (1, 1), (2, 2))
    assert pair_diversity(p, p) == 0.0


def test_pair_diversity_symmetric_exactly():
    rng = random.Random(2)
    for _ in range(25):
        p, l = _random_paths(rng, 2)
        assert pair_diversity(p, l) == pair_diversity(l, p)


def test_pair_diversity_equals_delta_evaluation():
    from geodiv.cluster import delta_vector

    rng = random.Random(4)
    for _ in range(25):
        p, l = _random_paths(rng, 2)
        assert pair_diversity(p, l) == diversity_from_delta(delta_vector(p, l))


def test_gdi_of_singleton_is_zero():
    assert gdi([_path((0, 0), (1, 1))]) == 0.0
    assert gdi([]) == 0.0


def test_gdi_of_two_paths_is_their_pair_diversity():
    p = _path((0, 0), (0, 3))
    l = _path((1, 0), (1, 3))
    assert gdi([p, l]) == pair_diversity(p, l)


def test_gdi_at_least_max_pairwise():
    rng = random.Random(8)
    for _ in range(15):
        paths = _random_paths(rng, rng.randint(2, 5))
        d0 = max(pair_diversity(a, b) for a, b in itertools.combinations(paths, 2))
        assert gdi(paths) >= d0 - 1e-12


def test_gdi_unchanged_by_exact_duplicate():
    rng = random.Random(9)
    for _ in range(15):
        paths = _random_paths(rng, rng.randint(2, 4))
        duplicated = paths + [paths[0]]
        assert gdi(duplicated) == pytest.approx(gdi(paths), rel=1e-12, abs=1e-12)


def test_gdi_matches_greedy_replay():
    rng = random.Random(10)
    for _ in range(30):
        paths = _random_paths(rng, rng.randint(2, 5))
        ordered = sorted(paths, key=GeoPath.sort_key)
        want = greedy_replay(ordered, pair_diversity)
        assert gdi(paths) == pytest.approx(want, rel=1e-9)


def test_gdi_ordering_on_grid_layout(grid_routes):
    r = gdi([grid_routes["R1"], grid_routes["R3"]])
    r4 = gdi([grid_routes["R1"], grid_routes["R3"], grid_routes["R4"]])
    r5 = gdi([grid_routes["R1"], grid_routes["R3"], grid_routes["R5"]])
    r2 = gdi([grid_routes["R1"], grid_routes["R3"], grid_routes["R2"]])
    assert r < r4 < r5 < r2


def test_mgdi_single_route_is_zero():
    assert mgdi(1, 100.0, 200.0, DiversityConfig()) == 0.0


def test_mgdi_degenerate_triangle_is_zero():
    assert mgdi(2, 100.0, 100.0, DiversityConfig()) == 0.0


def test_mgdi_rejects_inconsistent_lengths():
    with pytest.raises(ValueError, match=r"^longest route \(99\.0 km\) shorter than the endpoint distance"):
        mgdi(2, 100.0, 99.0, DiversityConfig())
    with pytest.raises(ValueError, match="^endpoint distance must be positive, got 0.0$"):
        mgdi(2, 0.0, 50.0, DiversityConfig())


@pytest.mark.parametrize(
    "n, endpoint, longest, message",
    [
        (3, 1000.0, math.inf, "longest route must be finite, got inf"),
        (3, math.nan, 1000.0, "endpoint distance must be finite, got nan"),
        (2, math.inf, math.inf, "endpoint distance must be finite, got inf"),
        (4, 1000.0, math.nan, "longest route must be finite, got nan"),
        (2, -math.inf, 1000.0, "endpoint distance must be finite, got -inf"),
        # A route count that is not an int.
        (2.5, 1000.0, 1400.0, "route count must be an integer, got 2.5"),
        (4.0, 1000.0, 1400.0, "route count must be an integer, got 4.0"),
        (True, 1000.0, 1400.0, "route count must be an integer, got True"),
    ],
)
def test_mgdi_refuses_non_finite_lengths(n, endpoint, longest, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mgdi(n, endpoint, longest, DiversityConfig())


@pytest.mark.parametrize(
    "n, endpoint, longest", [(2, 1e200, 3e200), (3, 1e200, 1e200), (3, 1.0, 1e300), (4, 1e300, 1e308)]
)
def test_mgdi_of_lengths_too_long_to_square_is_rescaled(n, endpoint, longest):
    # (L/2)^2 overflows for these lengths, but mgdi searches the shape with
    # the longest route scaled into [0.5, 1): the result is that shape's
    # own, scaled back exactly.
    k = math.frexp(longest)[1]
    want = math.ldexp(mgdi(n, math.ldexp(endpoint, -k), math.ldexp(longest, -k)), k)
    assert math.isfinite(want)
    assert mgdi(n, endpoint, longest) == want


def test_mgdi_past_the_float_range_reads_inf(monkeypatch):
    # The GDI of the searched shape is scaled back by up to 2**1024; one
    # that then passes the float range reads inf, as a sum of kilometres
    # would, instead of raising OverflowError.
    monkeypatch.setattr(diversity, "_best_greedy_set", lambda *args: 1.0)
    assert mgdi(4, 1.0, 1.7e308) == math.inf
    assert mgdi(4, 1.0, 8.9e307) == math.ldexp(1.0, 1023)


def test_mgdi_two_routes_matches_height_grid_brute_force():
    cfg = DiversityConfig()
    endpoint, longest = 100.0, 200.0
    h_max = math.sqrt((longest / 2) ** 2 - (endpoint / 2) ** 2)
    grid = [-h_max + 2 * h_max * k / (cfg.mgdi_grid_steps - 1) for k in range(cfg.mgdi_grid_steps)]
    pinned = triangle_route(endpoint, h_max)
    want = max(planar_gdi([pinned, triangle_route(endpoint, h)]) for h in grid)
    assert mgdi(2, endpoint, longest, cfg) == want


def test_mgdi_three_routes_matches_full_assignment_search():
    # Exhaustive search over every height tuple must agree with the
    # subset-based implementation.
    cfg = DiversityConfig(mgdi_grid_steps=7)
    endpoint, longest = 120.0, 260.0
    h_max = math.sqrt((longest / 2) ** 2 - (endpoint / 2) ** 2)
    steps = cfg.mgdi_grid_steps
    grid = [-h_max + 2 * h_max * k / (steps - 1) for k in range(steps)]
    pinned = triangle_route(endpoint, h_max)
    want = max(
        planar_gdi([pinned, triangle_route(endpoint, h1), triangle_route(endpoint, h2)])
        for h1 in grid
        for h2 in grid
    )
    assert mgdi(3, endpoint, longest, cfg) == want


# Geometries whose apex-height grids are exact integers, so mirrored
# triangle pairs score exactly alike and the greedy's tie-breaks decide.
_TIED_GEOMETRIES = [(8.0, 10.0), (48.0, 52.0)]  # h_max 3 and 10


def _mgdi_scale(longest: float) -> int:
    """The power of two ``mgdi`` scales a shape down by: the one that puts
    the longest route in [0.5, 1)."""
    return math.frexp(longest)[1]


def _at_mgdi_scale(oracle, n, d, longest, cfg):
    """``oracle`` run on the shape at the scale ``mgdi`` searches it, and
    scaled back."""
    k = _mgdi_scale(longest)
    return math.ldexp(oracle(n, math.ldexp(d, -k), math.ldexp(longest, -k), cfg), k)


# The exhaustive search and the full-table trajectory search on the apex
# kernel's own table, at mgdi's scale: mgdi must equal both bit for bit.
_kernel_exhaustive = functools.partial(_at_mgdi_scale, functools.partial(mgdi_exhaustive, kernel=True))
_full_table = functools.partial(_at_mgdi_scale, mgdi_full_table)


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 7, 21, 41])
def test_mgdi_equals_exhaustive_search(steps):
    rng = random.Random(steps)
    cfg = DiversityConfig(mgdi_grid_steps=steps)
    geometries = [(1000.0, 1000.0), (1000.0, 1000.0 * (1.0 + 1e-12)), *_TIED_GEOMETRIES]
    geometries += [(d, d * rng.uniform(1.0, 3.0)) for d in (rng.uniform(1.0, 5000.0) for _ in range(3))]
    for n in range(1, 9):
        # Keep the oracle to at most ~25k height subsets per call.
        if sum(math.comb(steps - 1, k) for k in range(1, n)) > 25_000:
            break
        for endpoint, longest in geometries:
            want = _kernel_exhaustive(n, endpoint, longest, cfg)
            assert mgdi(n, endpoint, longest, cfg) == want, (n, endpoint, longest)
            assert _full_table(n, endpoint, longest, cfg) == want, (n, endpoint, longest)


def test_mgdi_equals_exhaustive_search_for_eight_tied_routes():
    cfg = DiversityConfig()
    endpoint, longest = _TIED_GEOMETRIES[1]
    score = _triangle_scorer(endpoint, [-10.0 + k for k in range(21)])
    scores = [score(i, j) for i, j in itertools.combinations(range(21), 2)]
    assert len(set(scores)) < len(scores) * 0.6
    assert mgdi(8, endpoint, longest, cfg) == _kernel_exhaustive(8, endpoint, longest, cfg)


@pytest.mark.parametrize("steps", [2, 3, 7, 21])
def test_mgdi_is_the_planar_models_within_rounding(steps):
    # The planar model MGDI is defined on: triangle routes, the generic
    # planar point-to-path distance and every height subset. Each pair
    # score is within 2**-50 * (d/2 + h_max) of the planar one (see
    # _assert_kernel_near_the_generic_distance) and a GDI sums n - 1 of
    # them, so the two searches differ by at most (n - 1) * 2**-50 * L.
    rng = random.Random(steps)
    cfg = DiversityConfig(mgdi_grid_steps=steps)
    geometries = [(1000.0, 1000.0), (1000.0, 1000.0 * (1.0 + 1e-12)), *_TIED_GEOMETRIES]
    geometries += [(d, d * rng.uniform(1.0, 3.0)) for d in (rng.uniform(1.0, 5000.0) for _ in range(3))]
    for n in range(2, 6 if steps <= 7 else 4):
        for endpoint, longest in geometries:
            got, want = mgdi(n, endpoint, longest, cfg), mgdi_exhaustive(n, endpoint, longest, cfg)
            assert abs(got - want) <= (n - 1) * 2.0**-50 * longest, (n, endpoint, longest)


def test_trajectory_search_matches_subset_search_on_tied_tables():
    # A handful of score levels makes ties in the opening pair and in every
    # pick common, so each greedy tie-break rule decides which sets the
    # trajectory search may reach; non-dyadic levels make the summation
    # order visible in the last bit.
    rng = random.Random(12)
    levels = [0.0, 0.1, 0.25, 0.7, 1.0 / 3.0]
    for _ in range(400):
        m = rng.randint(3, 9)
        table = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                table[i][j] = table[j][i] = rng.choice(levels)
        pinned = rng.randrange(m)
        n = rng.randint(3, m)
        pairs_with_pinned = max([0.0] + [table[pinned][k] for k in range(m) if k != pinned])
        want = best_greedy_set_exhaustive(table, pinned, n)
        assert _best_greedy_set(table, pinned, n, pairs_with_pinned) == want, (table, pinned, n)


def _at_kernel_scale(d: float, h_i: float, h_j: float) -> tuple[float, float, float]:
    """``d`` and two heights scaled by the power of two that puts the
    largest of ``d``, ``2 * |h_i|`` and ``2 * |h_j|`` in [0.5, 1), as
    ``mgdi`` puts its longest route there before it calls the kernel."""
    k = math.frexp(max(d, 2.0 * abs(h_i), 2.0 * abs(h_j)))[1]
    return math.ldexp(d, -k), math.ldexp(h_i, -k), math.ldexp(h_j, -k)


def _assert_kernel_near_the_generic_distance(d, h_i, h_j):
    # The generic planar distance rounds differently. The exact distances
    # are at most s = d/2 + max(|h_i|, |h_j|); the kernel's are within 4
    # ulps, 2**-50 * s, of them, the generic one's within ~1.2 * 2**-53 * s
    # (measured), and the pair score moves by at most 77/216 of a change
    # in them, plus its own rounding, ~6 * 2**-53 of a score of at most
    # 7/27 * s on each side: under 0.9 * 2**-50 * s in all. 4 * 2**-1074
    # covers the subnormal products of the smallest shapes.
    got, want = _triangle_scorer(d, [h_i, h_j])(0, 1), mgdi_pair_score(d, h_i, h_j)
    scale = d / 2.0 + max(abs(h_i), abs(h_j))
    assert abs(got - want) <= 2.0**-50 * scale + 4 * 5e-324, (d, h_i, h_j)


@pytest.mark.parametrize("d", [5e-324, 1e-300, 1e-9, 1.0, 1000.0, 2e4])
def test_triangle_kernel_equals_generic_distance_on_edge_cases(d):
    # At d = 5e-324 beside a tall apex, d / 2 rounds to 0 at mgdi's scale,
    # so a triangle with a zero apex has a zero-length arm and the generic
    # distance's seg_sq == 0.0 branch runs.
    for h_max in (0.0, 5e-324, d, 3.0 * d, 2e4):
        heights = (0.0, -0.0, h_max, -h_max, h_max / 3.0)
        for h_i, h_j in itertools.product(heights, repeat=2):
            _assert_kernel_near_the_generic_distance(*_at_kernel_scale(d, h_i, h_j))


def _mgdi_grid(d: float, longest: float, steps: int) -> tuple[float, list[float]]:
    """The endpoint distance and the height grid ``mgdi`` searches, on the
    shape at its scale."""
    k = _mgdi_scale(longest)
    d, half_l = math.ldexp(d, -k), math.ldexp(longest, -k) / 2.0
    h_max = math.sqrt(half_l * half_l - (d / 2.0) * (d / 2.0))
    return d, sorted(set(_height_grid(h_max, steps)))


@given(
    d=st.one_of(st.just(5e-324), st.floats(min_value=5e-324, max_value=2e4)),
    ratio=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=10.0)),
    steps=st.integers(min_value=1, max_value=41),
    picks=st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
)
def test_triangle_kernel_equals_generic_distance_on_mgdi_grids(d, ratio, steps, picks):
    # The heights mgdi scores: a signed grid of up to 41 steps over +/-h_max.
    d, grid = _mgdi_grid(d, d * ratio, steps)
    h_i, h_j = (grid[k % len(grid)] for k in picks)
    _assert_kernel_near_the_generic_distance(d, h_i, h_j)


@given(
    d=st.floats(min_value=5e-324, max_value=2e4),
    h_i=st.floats(min_value=-2e4, max_value=2e4),
    h_j=st.floats(min_value=-2e4, max_value=2e4),
)
def test_triangle_kernel_equals_generic_distance_on_any_heights(d, h_i, h_j):
    _assert_kernel_near_the_generic_distance(*_at_kernel_scale(d, h_i, h_j))


def _kernel_distances(d: float, h_i: float, h_j: float) -> tuple[float, float]:
    """The two apex distances ``_triangle_scorer`` hands the pair score."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diversity, "diversity_from_delta", lambda values: values)
        values = _triangle_scorer(d, [h_i, h_j])(0, 1)
    return values[1], values[4]


def _within_ulps(got: float, exact_squared: Fraction, ulps: int) -> bool:
    """Whether ``got`` is within ``ulps`` ulps (of ``got``) of the square
    root of ``exact_squared``, compared exactly."""
    step = ulps * Fraction(math.ulp(got))
    return max(Fraction(got) - step, Fraction(0)) ** 2 <= exact_squared <= (Fraction(got) + step) ** 2


@given(
    d=st.one_of(st.just(5e-324), st.floats(min_value=5e-324, max_value=2e4)),
    ratio=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=10.0)),
    steps=st.integers(min_value=1, max_value=41),
    picks=st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    free=st.one_of(
        st.none(), st.tuples(st.floats(min_value=-2e4, max_value=2e4), st.floats(min_value=-2e4, max_value=2e4))
    ),
    near=st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
)
def test_triangle_kernel_distances_are_within_4_ulps_of_the_exact_ones(d, ratio, steps, picks, free, near):
    # Heights from mgdi's own grid, on the shape at its scale, or drawn
    # freely and scaled as mgdi would; with ``near``, the second free
    # height is the first moved by that many ulps, where the other apex
    # and the arm's line nearly coincide.
    if free is None:
        d, grid = _mgdi_grid(d, d * ratio, steps)
        h_i, h_j = (grid[k % len(grid)] for k in picks)
    else:
        h_i, h_j = free
        if near is not None:
            h_j = h_i
            for _ in range(abs(near)):
                h_j = math.nextafter(h_j, math.copysign(math.inf, near))
        d, h_i, h_j = _at_kernel_scale(d, h_i, h_j)
    a, b = _kernel_distances(d, h_i, h_j)
    assert _within_ulps(a, apex_distance_squared(d, h_i, h_j), 4), (d, h_i, h_j)
    assert _within_ulps(b, apex_distance_squared(d, h_j, h_i), 4), (d, h_i, h_j)


# Endpoint distances from 5e-324 up, L/d ratios from exactly 1 (h_max = 0)
# and barely above it (the flattest triangles) to 10.
endpoint_distances = st.one_of(
    st.just(5e-324), st.floats(min_value=5e-324, max_value=2e4), st.floats(min_value=1.0, max_value=2e4)
)
ratios = st.one_of(
    st.just(1.0), st.just(1.0 + 2.0**-52), st.just(1.0 + 1e-12), st.floats(min_value=1.0, max_value=10.0)
)


@settings(max_examples=60)
@given(d=endpoint_distances, ratio=ratios, steps=st.one_of(st.integers(1, 41), st.integers(1, 201)))
# Flat shapes, where a pair can score close to 7/27 of its height gap: a
# three-route cut 1% too eager drops their best set.
@example(d=453.29379853526535, ratio=1.0096367207678585, steps=32)
@example(d=4727.43331961079, ratio=1.0000000131998419, steps=60)
@example(d=2531.6961250758172, ratio=1.000152737601355, steps=26)
def test_three_route_mgdi_equals_the_full_table_search(d, ratio, steps):
    cfg = DiversityConfig(mgdi_grid_steps=steps)
    got = mgdi(3, d, d * ratio, cfg)
    assert got == _full_table(3, d, d * ratio, cfg)
    if steps <= 41:
        assert got == _kernel_exhaustive(3, d, d * ratio, cfg)


@given(
    d=endpoint_distances,
    ratio=ratios,
    n=st.integers(2, 5),
    steps=st.integers(1, 21),
    j=st.integers(-1000, 1000),
)
def test_mgdi_scales_exactly_by_a_power_of_two(d, ratio, n, steps, j):
    # Scaling both lengths by 2**j is the same shape as long as neither
    # length rounds; the two results then differ by exactly 2**j, unless
    # the larger one has already rounded below the normal range.
    longest = d * ratio
    scaled = (math.ldexp(d, j), math.ldexp(longest, j))
    assume(math.ldexp(scaled[0], -j) == d and math.ldexp(scaled[1], -j) == longest)
    cfg = DiversityConfig(mgdi_grid_steps=steps)
    raw, got = mgdi(n, d, longest, cfg), mgdi(n, *scaled, cfg)
    small, large = (raw, got) if j >= 0 else (got, raw)
    assume(large == 0.0 or large >= sys.float_info.min)
    assert small == math.ldexp(large, -abs(j))


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 21, 41])
@pytest.mark.parametrize(
    "endpoint, longest",
    [*_TIED_GEOMETRIES, (1000.0, 1000.0), (1000.0, 1000.0 * (1.0 + 1e-12)), (5e-324, 1.0), (1e120, 3e120)],
)
def test_three_route_mgdi_on_tied_and_degenerate_grids(endpoint, longest, steps):
    # Tied integer grids, h_max == 0, the flattest triangles, a distance
    # that rounds to 0 at mgdi's scale and one whose coordinate products
    # pass 1e240 unless mgdi rescales it; at three grid steps every route
    # count from 3 up takes the three-route search.
    cfg = DiversityConfig(mgdi_grid_steps=steps)
    for n in (3, 4) if steps == 3 else (3,):
        want = _kernel_exhaustive(n, endpoint, longest, cfg)
        assert mgdi(n, endpoint, longest, cfg) == want
        assert _full_table(n, endpoint, longest, cfg) == want


@given(
    longest=st.one_of(st.just(5e-324), st.floats(min_value=5e-324, max_value=1e308)),
    ratio=st.one_of(ratios, st.floats(min_value=1.0, max_value=1e300)),
    steps=st.integers(1, 201),
)
def test_score_ceilings_bound_every_pair_score(longest, ratio, steps):
    # The ceiling the three-route search reads for a pair, 7/27 of its
    # height gap with the search's relative slack, at every shape: L/d up
    # to 1e300 and lengths from 5e-324 up, on the grid mgdi searches.
    assume(longest / ratio > 0.0)
    d, grid = _mgdi_grid(longest / ratio, longest, steps)
    # Every pair on a grid of at most 41 routes. On a finer one, every pair
    # among 25 spread-out grid routes, the extremes included, and each of
    # them with its upper neighbour, the closest pair.
    if len(grid) <= 41:
        pairs = [(i, j) for j in range(len(grid)) for i in range(j)]
    else:
        picked = sorted({round(k * (len(grid) - 1) / 24) for k in range(25)})
        pairs = [(i, j) for i in picked for j in picked if i < j]
        pairs += [(i, i + 1) for i in picked if i + 1 < len(grid)]
    scorer = _triangle_scorer(d, grid)
    for i, j in pairs:
        assert scorer(i, j) <= _PEAK_SHARE * (grid[j] - grid[i]) * _BOUND_SLACK, (i, j)


def _off_pinned_pairs_scored(monkeypatch, endpoint: float, longest: float) -> int:
    """How many pairs off the pinned route ``mgdi(3)`` scores at 1001
    steps, after checking that a third route adds to the best pair."""
    scorer = diversity._triangle_scorer
    off_pinned = []

    def counting(endpoint_distance_km, heights):
        score = scorer(endpoint_distance_km, heights)

        def counted(i, j):
            if j != len(heights) - 1:
                off_pinned.append((i, j))
            return score(i, j)

        return counted

    monkeypatch.setattr(diversity, "_triangle_scorer", counting)
    cfg = DiversityConfig(mgdi_grid_steps=1001)
    assert mgdi(3, endpoint, longest, cfg) > mgdi(2, endpoint, longest, cfg)
    return len(off_pinned)


def test_three_route_mgdi_scores_few_pairs_at_a_fine_grid(monkeypatch):
    # At 1001 steps the full table has 499,500 pairs off the pinned route;
    # the three-route search must score under 1% of them.
    assert 0 < _off_pinned_pairs_scored(monkeypatch, 1000.0, 1400.0) < 5_005


@pytest.mark.parametrize(
    "endpoint, longest",
    [
        (1000.0, 5000.0),
        (1.0, 1e4),
        (1e120, 3e120),
        (1e-200, 3e-200),
        (1.1e-98, 1000.0),
        (5e-324, 1.0),
        (1.0, 1e300),
    ],
)
def test_three_route_mgdi_scores_a_fifth_of_the_pairs_on_tall_shapes(monkeypatch, endpoint, longest):
    # Tall triangles leave more pairs whose 7/27 ceiling beats the best
    # set; the search still scores under a fifth of the 499,500, at any
    # scale and any L/d: the search sees only the shape, and its ceiling
    # holds on every shape.
    assert 0 < _off_pinned_pairs_scored(monkeypatch, endpoint, longest) < 100_000


@settings(max_examples=300, deadline=None)
@given(
    d=endpoint_distances,
    ratio=ratios,
    n_steps=st.one_of(
        st.tuples(st.integers(3, 8), st.integers(2, 21)), st.tuples(st.just(3), st.integers(2, 101))
    ),
)
def test_mgdi_never_falls_when_the_grid_is_refined(d, ratio, n_steps):
    # Beyond the exhaustive oracle's reach: the grid of 2s - 1 steps holds
    # the grid of s steps bit for bit, so its best set can only be better.
    n, steps = n_steps
    h_max = math.sqrt(max(0.0, (d * ratio / 2.0) ** 2 - (d / 2.0) ** 2))
    assert set(_height_grid(h_max, steps)) <= set(_height_grid(h_max, 2 * steps - 1))
    coarse = mgdi(n, d, d * ratio, DiversityConfig(mgdi_grid_steps=steps))
    assert coarse <= mgdi(n, d, d * ratio, DiversityConfig(mgdi_grid_steps=2 * steps - 1))


def test_mgdi_grows_with_route_count_until_the_grid_is_used_up():
    # The whole sweep, n = 30 included, must run quickly: there is no
    # exponential cliff in the route count.
    values = [mgdi(n, 1000.0, 1400.0) for n in range(2, 31)]
    assert values == sorted(values)
    at_grid_size = values[21 - 2]
    assert values[21 - 2 :] == [at_grid_size] * len(values[21 - 2 :])


def test_mgdi_is_the_same_bits_on_every_interpreter():
    # The MGDI path uses only correctly rounded float operations, fsum and
    # CPython's own hypot, so these values, recorded under CPython 3.11.7
    # and equal under 3.10.13, 3.12.1 and 3.13.0, hold bit for bit on every
    # interpreter of the CI matrix.
    assert [repr(mgdi(n, 1000.0, 1400.0)) for n in range(2, 8)] == [
        "181.4436846506058",
        "297.6099620537342",
        "355.6931007552984",
        "413.77623945686264",
        "440.52041829108055",
        "467.2645971252984",
    ]
    cfg = DiversityConfig(mgdi_grid_steps=101)
    assert repr(mgdi(3, 1.1e-98, 1000.0, cfg)) == "201.38888888888886"
    assert repr(mgdi(3, 1.0, 1e300, cfg)) == "2.013888888888889e+299"


def test_mgdi_positive_when_geometry_allows():
    assert mgdi(2, 100.0, 200.0, DiversityConfig()) > 0.0


def test_compression_ratio_examples():
    assert compression_ratio(7, 3) == pytest.approx(7 / 3)
    assert compression_ratio(4, 4) == 1.0
    assert compression_ratio(5, 1) == 5.0


def test_compression_ratio_rejects_bad_counts():
    with pytest.raises(ValueError, match="^route and cluster counts must both be at least 1$"):
        compression_ratio(0, 1)
    with pytest.raises(ValueError, match=r"^cluster count \(4\) exceeds route count \(3\)$"):
        compression_ratio(3, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        DiversityConfig(threshold_km=0.0)
    with pytest.raises(ValueError):
        DiversityConfig(earth_radius_km=-1.0)
    with pytest.raises(ValueError):
        DiversityConfig(mgdi_grid_steps=0)
    assert DiversityConfig(threshold_km=50, earth_radius_km=6371) == DiversityConfig()


def test_config_checks_replace_and_make():
    # NamedTuple's _replace builds through _make, which skips __new__.
    with pytest.raises(InvalidConfig, match="^threshold_km must be positive and finite, got inf$"):
        DiversityConfig()._replace(mgdi_grid_steps=10**9, threshold_km=float("inf"))
    with pytest.raises(InvalidConfig, match="^threshold_km must be positive and finite, got nan$"):
        DiversityConfig._make([math.nan, 1.0, 5])
    with pytest.raises(InvalidConfig, match="^mgdi_grid_steps must be at most 1001, got 1000000000$"):
        DiversityConfig()._replace(mgdi_grid_steps=10**9)
    replaced = DiversityConfig()._replace(threshold_km=20.0, mgdi_grid_steps=41)
    assert type(replaced) is DiversityConfig
    assert replaced == DiversityConfig(threshold_km=20.0, mgdi_grid_steps=41)
    assert DiversityConfig._make([20.0, 6371.0, 41]) == replaced


@pytest.mark.parametrize(
    "setting, value, message",
    [
        ("mgdi_grid_steps", 21.5, "must be a positive integer, got 21.5"),
        ("mgdi_grid_steps", 21.0, "must be a positive integer, got 21.0"),
        ("mgdi_grid_steps", True, "must be a positive integer, got True"),
        ("mgdi_grid_steps", "21", "must be a positive integer, got '21'"),
        ("threshold_km", "50", "must be positive and finite, got '50'"),
        ("threshold_km", True, "must be positive and finite, got True"),
        ("earth_radius_km", "6371", "must be positive and at most 1e+12, got '6371'"),
        ("earth_radius_km", False, "must be positive and at most 1e+12, got False"),
    ],
)
def test_config_rejects_a_setting_of_the_wrong_type(setting, value, message):
    with pytest.raises(InvalidConfig) as excinfo:
        DiversityConfig(**{setting: value})
    assert (excinfo.value.field, excinfo.value.reason) == (setting, message)
