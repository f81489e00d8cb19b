"""Seeded synthetic corpora for the geodiv benchmark.

The benchmark owns its inputs, so a change to ``geodiv.synthetic`` never
changes what is measured. Scored pairs are drawn from two fixed pools of
*templates*. A template is the geometry of one endpoint pair: its geo-paths,
grouped by planted corridor. Pools are generated from constant seeds, so
the reference scores in ``reference/<pool>.json`` hold for every workload
seed. The workload seed picks the templates and their order. It also picks
everything that leaves a pair's scores unchanged: hop addresses, alias
routes, line repeats, and the decorations (unresponsive, unlocatable and
duplicate-location hops) that the localization rules strip again.

Pools:

* ``small``: 1-3 corridors at >= 300 km spacing, 1-3 variants each,
  3-4 interior nodes (the shape of ``geodiv.synthetic``).
* ``many``: 4-7 corridors at 250-320 km spacing, 2-5 variants each within
  +/-12 km, 4-6 interior nodes; every fourth template crosses the
  antimeridian.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

KM_PER_DEG = math.pi * 6371.0 / 180.0

# Pool sizes per planted cluster count: twice (small) or more (many) the
# number a workload draws, so seeds differ in which templates they use.
POOL_SIZES = {
    "small": {1: 420, 2: 480, 3: 300},
    "many": {4: 48, 5: 16, 6: 8, 7: 8},
}
_POOL_SEEDS = {"small": "geodiv-bench-small-v1", "many": "geodiv-bench-many-v1"}

_SMALL_OFFSETS = (0.0, 300.0, -300.0, 600.0)
_SMALL_SLOTS = (-10.0, 0.0, 10.0)
# Corridors closer than this (planar km) are redrawn, and variants of one
# corridor stay well inside it, so the planted count is unambiguous at the
# 50 km clustering threshold.
_MIN_CORRIDOR_GAP_KM = 100.0

_DECOY_ROW = "10.0.0.0/8,0.0,0.0"
# Each distinct route appears this many times (inclusive range) in the trace.
_LINE_REPEATS = (1, 3)

Point = tuple[float, float]


@dataclass(frozen=True)
class Template:
    id: str
    corridors: tuple[tuple[tuple[Point, ...], ...], ...]  # corridor -> variant -> (lat, lon)

    @property
    def clusters(self) -> int:
        return len(self.corridors)


@dataclass(frozen=True)
class CorpusSpec:
    """Exact pair composition of one corpus; ``scored`` maps cluster count
    to the number of scored pairs drawn from ``pool``. Extra repeats of
    random routes top the trace up to ``min_lines`` lines; with a target
    above the natural count, every seed gives the same line count."""

    pool: str
    scored: dict[int, int]
    single_route: int = 0
    single_geopath: int = 0
    min_lines: int = 0


@dataclass
class Corpus:
    trace_lines: list[str]
    geodb_lines: list[str]
    summary: dict[str, int]
    pairs: dict[tuple[str, str], dict]  # planted truth of the scored pairs

    def write(self, directory: Path) -> tuple[Path, Path]:
        traces, geodb = directory / "traces.jsonl", directory / "geodb.csv"
        traces.write_text("\n".join(self.trace_lines) + "\n", encoding="utf-8")
        geodb.write_text("\n".join(self.geodb_lines) + "\n", encoding="utf-8")
        return traces, geodb


def _normalize_lon(lon: float) -> float:
    return lon if -180.0 <= lon < 180.0 else ((lon + 180.0) % 360.0) - 180.0


def _planar_point_to_path(p: Point, path: list[Point]) -> float:
    px, py = p
    best = math.inf
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        dx, dy = bx - ax, by - ay
        t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(px - ax - t * dx, py - ay - t * dy))
    return best


def _corridors_apart(planar: list[list[list[Point]]]) -> bool:
    """Every interior node of every corridor is far from every other corridor."""
    for i, corridor in enumerate(planar):
        for j, other in enumerate(planar):
            if i == j:
                continue
            for variant in corridor:
                for node in variant[1:-1]:
                    if any(_planar_point_to_path(node, o) < _MIN_CORRIDOR_GAP_KM for o in other):
                        return False
    return True


def _to_latlon(rng: random.Random, length: float, reach_km: float, planar, antimeridian: bool):
    """Place planar (x along the pair, y lateral) km coordinates on the globe
    in a local tangent frame; lon is normalized to [-180, 180)."""
    while True:
        lat0 = rng.uniform(-45.0, 45.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if antimeridian and abs(math.cos(theta)) < 0.6:
            continue
        if abs(lat0) + (abs(math.sin(theta)) * length + reach_km) / KM_PER_DEG <= 60.0:
            break
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_ref = math.cos(math.radians(lat0 + sin_t * (length / 2.0) / KM_PER_DEG))
    if antimeridian:
        span = cos_t * length / (KM_PER_DEG * cos_ref)
        lon0 = 180.0 - span * rng.uniform(0.3, 0.7)
    else:
        lon0 = rng.uniform(-120.0, 120.0)

    def convert(x: float, y: float) -> Point:
        east = x * cos_t - y * sin_t
        north = x * sin_t + y * cos_t
        return (lat0 + north / KM_PER_DEG, _normalize_lon(lon0 + east / (KM_PER_DEG * cos_ref)))

    return tuple(
        tuple(tuple(convert(x, y) for x, y in variant) for variant in corridor)
        for corridor in planar
    )


def _planar_corridors(rng, length, ts, offsets, variant_slots):
    """Variant polylines per corridor: endpoints shared, interior nodes on a
    sin(pi t) bulge of the corridor offset plus the variant's lateral slot."""
    corridors = []
    for offset, slots in zip(offsets, variant_slots):
        variants = []
        for slot in slots:
            nodes = [(0.0, 0.0)]
            for t in ts:
                nodes.append((t * length, offset * math.sin(math.pi * t) + slot + rng.uniform(-2.0, 2.0)))
            nodes.append((length, 0.0))
            variants.append(nodes)
        corridors.append(variants)
    return corridors


def _small_template(rng: random.Random, k: int, tid: str) -> Template:
    while True:
        length = rng.uniform(900.0, 2400.0)
        m = rng.randint(3, 4)
        ts = [0.18 + 0.64 * i / (m - 1) + rng.uniform(-0.02, 0.02) for i in range(m)]
        offsets = rng.sample(_SMALL_OFFSETS, k)
        slots = [
            rng.sample(_SMALL_SLOTS, rng.randint(2 if k == 1 else 1, len(_SMALL_SLOTS)))
            for _ in range(k)
        ]
        planar = _planar_corridors(rng, length, ts, offsets, slots)
        if _corridors_apart(planar):
            break
    reach = max(abs(o) for o in offsets) + 100.0
    return Template(tid, _to_latlon(rng, length, reach, planar, antimeridian=False))


def _many_template(rng: random.Random, k: int, tid: str, antimeridian: bool) -> Template:
    while True:
        # Wider fans get longer routes, so that the outer corridors' first
        # and last segments stay clear of their neighbours.
        length = rng.uniform(1500.0, 2500.0) + 250.0 * k
        m = rng.randint(4, 6)
        ts = [0.2 + 0.6 * i / (m - 1) + rng.uniform(-0.02, 0.02) for i in range(m)]
        spacing = rng.uniform(250.0, 320.0)
        offsets = [(j - (k - 1) / 2.0) * spacing for j in range(k)]
        slots = [[rng.uniform(-10.0, 10.0) for _ in range(rng.randint(2, 5))] for _ in range(k)]
        planar = _planar_corridors(rng, length, ts, offsets, slots)
        if _corridors_apart(planar):
            break
    reach = max(abs(o) for o in offsets) + 100.0
    return Template(tid, _to_latlon(rng, length, reach, planar, antimeridian))


def template_pool(pool: str) -> dict[int, list[Template]]:
    """The fixed template pool, by planted cluster count."""
    rng = random.Random(_POOL_SEEDS[pool])
    out: dict[int, list[Template]] = {}
    for k, size in POOL_SIZES[pool].items():
        if pool == "small":
            out[k] = [_small_template(rng, k, f"s{k}-{i}") for i in range(size)]
        else:
            out[k] = [_many_template(rng, k, f"m{k}-{i}", i % 4 == 0) for i in range(size)]
    return out


class _Emitter:
    """Turns templates into trace lines and /32 geodb rows. Located hops come
    from 10/8, endpoints from 172.16/12, unlocatable hops from 198.51.100/24."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_hop = 10 << 24 | 1
        self.next_endpoint = (172 << 24 | 16 << 16) + 1
        self.records: list[str] = []
        self.routes: list[tuple[str, str, list[str]]] = []
        self.geodb = ["cidr,lat,lon", _DECOY_ROW]

    @staticmethod
    def _ip(value: int) -> str:
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"

    def endpoint(self) -> str:
        self.next_endpoint += 1
        return self._ip(self.next_endpoint - 1)

    def _located(self, lat: float, lon: float) -> str:
        ip = self._ip(self.next_hop)
        self.next_hop += 1
        self.geodb.append(f"{ip}/32,{lat!r},{lon!r}")
        return ip

    def route(self, nodes: tuple[Point, ...]) -> list[str]:
        """Fresh addresses over ``nodes``; sometimes one unlocatable hop and
        one second address at an existing hop's location (both vanish in
        localization)."""
        rng = self.rng
        hops = [self._located(lat, lon) for lat, lon in nodes]
        if rng.random() < 0.15:
            i = rng.randrange(len(nodes))
            hops.insert(i + 1, self._located(*nodes[i]))
        if rng.random() < 0.15:
            hops.insert(rng.randint(0, len(hops)), f"198.51.100.{rng.randint(1, 250)}")
        return hops

    def _line(self, src: str, dst: str, hops: list[str]) -> None:
        line = list(hops)
        if self.rng.random() < 0.25:
            line.insert(self.rng.randint(0, len(line)), "*")
        self.records.append(json.dumps({"src": src, "dst": dst, "hops": line}))

    def emit(self, src: str, dst: str, routes: list[list[str]]) -> None:
        for hops in routes:
            self.routes.append((src, dst, hops))
            for _ in range(self.rng.randint(*_LINE_REPEATS)):
                self._line(src, dst, hops)

    def top_up(self, lines: int) -> None:
        """Repeat random routes once more until there are ``lines`` lines;
        a repeat never changes a pair's distinct routes."""
        while len(self.records) < lines:
            self._line(*self.rng.choice(self.routes))


def _filtered_nodes(rng: random.Random) -> tuple[Point, ...]:
    lat, lon = rng.uniform(-50.0, 50.0), rng.uniform(-170.0, 170.0)
    dlat, dlon = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
    m = rng.randint(4, 6)
    return tuple(
        (lat + dlat * i / (m - 1) + rng.uniform(-0.3, 0.3), lon + dlon * i / (m - 1))
        for i in range(m)
    )


def build_corpus(spec: CorpusSpec, seed: int, pool: dict[int, list[Template]]) -> Corpus:
    """Deterministic corpus for ``spec`` and ``seed``, with planted truth."""
    rng = random.Random(seed)
    kinds: list = ["single_route"] * spec.single_route + ["single_geopath"] * spec.single_geopath
    for k, count in sorted(spec.scored.items()):
        kinds.extend(rng.sample(pool[k], count))
    rng.shuffle(kinds)

    emitter = _Emitter(rng)
    pairs: dict[tuple[str, str], dict] = {}
    for kind in kinds:
        src, dst = emitter.endpoint(), emitter.endpoint()
        if kind == "single_route":
            routes = [emitter.route(_filtered_nodes(rng))]
        elif kind == "single_geopath":
            nodes = _filtered_nodes(rng)
            routes = [emitter.route(nodes) for _ in range(rng.randint(2, 4))]
        else:
            routes = []
            geo_paths = 0
            for corridor in kind.corridors:
                for variant in corridor:
                    geo_paths += 1
                    routes.extend(emitter.route(variant) for _ in range(rng.randint(1, 2)))
            pairs[(src, dst)] = {
                "template": kind.id,
                "ip_routes": len(routes),
                "geo_paths": geo_paths,
                "clusters": kind.clusters,
            }
        emitter.emit(src, dst, routes)

    emitter.top_up(spec.min_lines)
    rng.shuffle(emitter.records)
    summary = {
        "total_pairs": len(kinds),
        "pairs_removed_stage1": spec.single_route,
        "pairs_removed_stage2": spec.single_geopath,
        "pairs_scored": len(pairs),
    }
    return Corpus(emitter.records, emitter.geodb, summary, pairs)
