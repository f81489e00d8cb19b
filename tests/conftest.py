"""Shared fixtures: the grid route layout used for the GDI ordering checks,
the 7-IP-route example corpus that collapses to 3 clusters, and the
template pools of the benchmark's corpus generator (``perfbench/corpus.py``),
which the tests use for every corpus with planted truth."""

from __future__ import annotations

import json
import math
import os

import pytest
from hypothesis import settings

from geodiv import Coordinate, GeoPath

from corpus import template_pool

settings.register_profile("suite", deadline=None)
# CI gives each hypothesis test that sets no example count of its own ten
# times the default number of examples, and prints a falsifying example as a
# @reproduce_failure blob that replays it anywhere.
settings.register_profile("ci", settings.get_profile("suite"), max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

GRID_CELL_KM = 84.0
KM_PER_DEG = math.pi * 6371.0 / 180.0


@pytest.fixture(scope="session")
def small_pool():
    """1-3 planted clusters per template, as in the benchmark's ``mixed``."""
    return template_pool("small")


@pytest.fixture(scope="session")
def many_pool():
    """4-7 planted clusters per template; every fourth crosses the antimeridian."""
    return template_pool("many")


def grid_path(*cells: tuple[float, float]) -> GeoPath:
    """Path through (col, row) positions on an 84 km grid near the equator."""
    deg = GRID_CELL_KM / KM_PER_DEG
    return GeoPath(nodes=tuple(Coordinate(lat=row * deg, lon=col * deg) for col, row in cells))


@pytest.fixture(scope="session")
def grid_routes() -> dict[str, GeoPath]:
    """Five routes between shared endpoints on the 84 km grid.

    R1 and R3 are the outer cover routes; R2 is a well-separated middle
    route, R4 the same route moved next to R1, and R5 a route whose
    distance from R1 varies along the way.
    """
    s = (0.0, 2.0)
    t = (8.0, 2.0)
    return {
        "R1": grid_path(s, (2, 4), (4, 4), (6, 4), t),
        "R2": grid_path(s, (2, 2), (4, 2), (6, 2), t),
        "R3": grid_path(s, (1.6, 0), (3.2, 0), (4.8, 0), (6.4, 0), t),
        "R4": grid_path(s, (2, 3), (4, 3), (6, 3), t),
        "R5": grid_path(s, (2, 3), (4, 2), (6, 3), t),
    }


_WARSAW = (52.2297, 21.0122)
_MUMBAI = (19.0760, 72.8777)
_CORRIDOR_NORTH = [(53.9006, 27.5590), (55.7558, 37.6173), (41.2995, 69.2401), (28.6139, 77.2090)]
_CORRIDOR_MID = [(48.2082, 16.3738), (41.0082, 28.9784), (35.6892, 51.3890), (24.8607, 67.0011)]
_CORRIDOR_SOUTH = [(41.9028, 12.4964), (30.0444, 31.2357), (24.7136, 46.6753), (23.5880, 58.3829)]


def _jitter(corridor: list[tuple[float, float]], index: int, dlat: float) -> list[tuple[float, float]]:
    out = list(corridor)
    out[index] = (out[index][0] + dlat, out[index][1])
    return out


def seven_route_records() -> tuple[list[dict], list[str], dict]:
    """The 7-IP-route pair: 5 distinct geo-paths, 3 clusters at 50 km.

    Routes 1/2 and 4/5 are IP-alias copies (same locations, different
    addresses); routes 3 and 7 shift one node by ~10 km, staying inside
    their corridor's cluster.
    """
    src, dst = "172.20.0.1", "172.20.0.2"
    corridors = [
        _CORRIDOR_NORTH,
        _CORRIDOR_NORTH,
        _jitter(_CORRIDOR_NORTH, 1, 0.10),
        _CORRIDOR_MID,
        _CORRIDOR_MID,
        _CORRIDOR_SOUTH,
        _jitter(_CORRIDOR_SOUTH, 1, -0.09),
    ]
    records = []
    geodb = ["cidr,lat,lon"]
    next_ip = [0]

    def hop_at(lat: float, lon: float) -> str:
        next_ip[0] += 1
        ip = f"10.20.{next_ip[0] // 256}.{next_ip[0] % 256}"
        geodb.append(f"{ip}/32,{lat!r},{lon!r}")
        return ip

    for corridor in corridors:
        coords = [_WARSAW] + corridor + [_MUMBAI]
        records.append({"src": src, "dst": dst, "hops": [hop_at(*c) for c in coords]})
    expected = {"ip_routes": 7, "geo_paths": 5, "clusters": 3, "compression": 7.0 / 3.0}
    return records, geodb, expected


@pytest.fixture
def seven_route_corpus(tmp_path):
    records, geodb, expected = seven_route_records()
    traces = tmp_path / "traces.jsonl"
    geodb_path = tmp_path / "geodb.csv"
    traces.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    geodb_path.write_text("\n".join(geodb) + "\n", encoding="utf-8")
    return traces, geodb_path, expected
