import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geodiv import (
    Coordinate,
    DiversityConfig,
    EmptySet,
    GeoPath,
    InvalidCounts,
    InvalidGeometry,
    compression_ratio,
    diversity_from_delta,
    gdi,
    mgdi,
    pair_diversity,
    planar_gdi,
    planar_pair_diversity,
    set_diversity,
    triangle_route,
)
from geodiv.diversity import _best_greedy_set, _height_grid, _triangle_pair_scores
from oracles import (
    best_greedy_set_exhaustive,
    delta_score,
    greedy_replay,
    mgdi_exhaustive,
    mgdi_pair_score,
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
    from geodiv import delta_vector

    rng = random.Random(4)
    for _ in range(25):
        p, l = _random_paths(rng, 2)
        assert pair_diversity(p, l) == diversity_from_delta(delta_vector(p, l))


def test_set_diversity_with_duplicate_member():
    p = _path((0, 0), (1, 1))
    other = _path((2, 2), (3, 3))
    assert set_diversity(p, [other, p]) == 0.0


def test_set_diversity_singleton():
    p = _path((0, 0), (1, 1))
    l = _path((0.5, 0), (1.5, 1))
    assert set_diversity(p, [l]) == pair_diversity(p, l)


def test_set_diversity_is_minimum():
    rng = random.Random(6)
    for _ in range(20):
        paths = _random_paths(rng, 4)
        p, rest = paths[0], paths[1:]
        assert set_diversity(p, rest) == min(pair_diversity(p, l) for l in rest)


def test_set_diversity_rejects_empty_set():
    with pytest.raises(EmptySet):
        set_diversity(_path((0, 0), (1, 1)), [])


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
    with pytest.raises(InvalidGeometry):
        mgdi(2, 100.0, 99.0, DiversityConfig())
    with pytest.raises(InvalidGeometry):
        mgdi(2, 0.0, 50.0, DiversityConfig())


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
            want = mgdi_exhaustive(n, endpoint, longest, cfg)
            assert mgdi(n, endpoint, longest, cfg) == want, (n, endpoint, longest)


def test_mgdi_equals_exhaustive_search_for_eight_tied_routes():
    cfg = DiversityConfig()
    endpoint, longest = _TIED_GEOMETRIES[1]
    grid = [-10.0 + k for k in range(21)]
    scores = [
        planar_pair_diversity(triangle_route(endpoint, a), triangle_route(endpoint, b))
        for a, b in itertools.combinations(grid, 2)
    ]
    assert len(set(scores)) < len(scores) * 0.6
    assert mgdi(8, endpoint, longest, cfg) == mgdi_exhaustive(8, endpoint, longest, cfg)


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


def _assert_kernel_matches_oracle(d, h_i, h_j):
    got = _triangle_pair_scores(d, [h_i, h_j], [(0, 1)])
    assert got == [mgdi_pair_score(d, h_i, h_j)], (d, h_i, h_j)


@pytest.mark.parametrize("d", [5e-324, 1e-300, 1e-9, 1.0, 1000.0, 2e4])
def test_triangle_kernel_equals_generic_distance_on_edge_cases(d):
    # At d = 5e-324, d / 2 underflows to 0, so a triangle with a zero (or
    # tiny) apex has a zero-length arc and the seg_sq == 0.0 branch runs.
    for h_max in (0.0, 5e-324, d, 3.0 * d, 2e4):
        heights = (0.0, -0.0, h_max, -h_max, h_max / 3.0)
        for h_i, h_j in itertools.product(heights, repeat=2):
            _assert_kernel_matches_oracle(d, h_i, h_j)


@given(
    d=st.one_of(st.just(5e-324), st.floats(min_value=5e-324, max_value=2e4)),
    ratio=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=10.0)),
    steps=st.integers(min_value=1, max_value=41),
    picks=st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
)
def test_triangle_kernel_equals_generic_distance_on_mgdi_grids(d, ratio, steps, picks):
    # The heights mgdi scores: a signed grid of up to 41 steps over +/-h_max.
    h_max = math.sqrt(max(0.0, (d * ratio / 2.0) ** 2 - (d / 2.0) ** 2))
    grid = sorted(set(_height_grid(h_max, steps)))
    h_i, h_j = (grid[k % len(grid)] for k in picks)
    _assert_kernel_matches_oracle(d, h_i, h_j)


@given(
    d=st.floats(min_value=5e-324, max_value=2e4),
    h_i=st.floats(min_value=-2e4, max_value=2e4),
    h_j=st.floats(min_value=-2e4, max_value=2e4),
)
def test_triangle_kernel_equals_generic_distance_on_any_heights(d, h_i, h_j):
    _assert_kernel_matches_oracle(d, h_i, h_j)


def test_mgdi_grows_with_route_count_until_the_grid_is_used_up():
    # The whole sweep, n = 30 included, must run quickly: there is no
    # exponential cliff in the route count.
    values = [mgdi(n, 1000.0, 1400.0) for n in range(2, 31)]
    assert values == sorted(values)
    at_grid_size = values[21 - 2]
    assert values[21 - 2 :] == [at_grid_size] * len(values[21 - 2 :])


def test_mgdi_positive_when_geometry_allows():
    assert mgdi(2, 100.0, 200.0, DiversityConfig()) > 0.0


def test_compression_ratio_examples():
    assert compression_ratio(7, 3) == pytest.approx(7 / 3)
    assert compression_ratio(4, 4) == 1.0
    assert compression_ratio(5, 1) == 5.0


def test_compression_ratio_rejects_bad_counts():
    with pytest.raises(InvalidCounts):
        compression_ratio(0, 1)
    with pytest.raises(InvalidCounts):
        compression_ratio(3, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        DiversityConfig(threshold_km=0.0)
    with pytest.raises(ValueError):
        DiversityConfig(earth_radius_km=-1.0)
    with pytest.raises(ValueError):
        DiversityConfig(mgdi_grid_steps=0)
