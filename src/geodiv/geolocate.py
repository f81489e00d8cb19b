"""IP-to-location mapping from a CSV snapshot, geo-path construction and
the two-stage (single-IP-route, single-geo-path) pair filter.

Snapshot format: CSV rows ``cidr,lat,lon`` with an optional header line.
Lookups resolve overlapping prefixes longest-prefix-first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from ipaddress import AddressValueError, IPv4Address, IPv4Network, ip_network
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DuplicateCidr, ParseError, not_utf8
from .geodesy import Coordinate, PreparedPath
from .traces import HopSequence, Pair, RouteSet, UNRESPONSIVE, parse_ipv4

_HEADER = ("cidr", "lat", "lon")


class GeoDb:
    """Longest-prefix-match table from IPv4 prefixes to coordinates."""

    def __init__(self, entries: Iterable[tuple[IPv4Network, Coordinate]]):
        # Per prefix length, a table from the network address shifted right
        # by ``shift = 32 - prefixlen`` to the location.
        self._by_shift: dict[int, dict[int, Coordinate]] = {}
        self._tables: list[tuple[int, dict[int, Coordinate]]] = []  # longest prefix first
        for network, location in entries:
            self._add(int(network.network_address), network.prefixlen, location)

    def _add(self, network: int, prefixlen: int, location: Coordinate) -> None:
        shift = 32 - prefixlen
        table = self._by_shift.get(shift)
        if table is None:
            table = self._by_shift[shift] = {}
            self._tables = sorted(self._by_shift.items())
        key = network >> shift
        if key in table:
            raise DuplicateCidr(f"duplicate CIDR {IPv4Network((network, prefixlen))}")
        table[key] = location

    def __len__(self) -> int:
        return sum(len(table) for table in self._by_shift.values())

    def lookup(self, ip: str | IPv4Address) -> Coordinate | None:
        """Location of the longest matching prefix, or None when uncovered."""
        ip_int = parse_ipv4(ip)
        for shift, table in self._tables:
            location = table.get(ip_int >> shift)
            if location is not None:
                return location
        return None


def _parse_cidr(text: str) -> tuple[int, int] | None:
    """(network address with host bits cleared, prefix length), or None for
    a valid non-IPv4 prefix; ``ValueError`` when ``text`` is no prefix.

    The same as ``ip_network(text, strict=False)``, which handles every
    form but ``a.b.c.d/len`` (``len`` at most two digits) and ``a.b.c.d``.
    """
    address, slash, prefix = text.partition("/")
    if not slash:
        prefix = "32"
    if len(prefix) <= 2 and prefix.isascii() and prefix.isdigit() and int(prefix) <= 32:
        try:
            ip_int = parse_ipv4(address)
        except AddressValueError:
            pass
        else:
            prefixlen = int(prefix)
            shift = 32 - prefixlen
            return ip_int >> shift << shift, prefixlen
    network = ip_network(text, strict=False)
    if not isinstance(network, IPv4Network):
        return None
    return int(network.network_address), network.prefixlen


def _parse_geodb_row(
    row: list[str], path: str | None, line: int, locations: dict[tuple[str, str], Coordinate]
) -> tuple[int, int, Coordinate]:
    """(network, prefix length, location) of one snapshot row. ``locations``
    maps the stripped ``(lat, lon)`` texts seen so far to their coordinate,
    so rows that repeat a location share one ``Coordinate``."""
    if len(row) != 3:
        raise ParseError(f"expected 3 columns, got {len(row)}", path=path, line=line)
    cidr_text, lat_text, lon_text = [col.strip() for col in row]
    try:
        prefix = _parse_cidr(cidr_text)
    except ValueError as exc:
        raise ParseError(f"invalid CIDR {cidr_text!r}: {exc}", path=path, line=line) from exc
    if prefix is None:
        raise ParseError(f"not an IPv4 prefix: {cidr_text!r}", path=path, line=line)
    location = locations.get((lat_text, lon_text))
    if location is None:
        try:
            location = Coordinate(lat=float(lat_text), lon=float(lon_text))
        except ValueError as exc:
            raise ParseError(f"invalid coordinates: {exc}", path=path, line=line) from exc
        locations[lat_text, lon_text] = location
    return *prefix, location


def load_geodb(path: str | Path) -> GeoDb:
    """Load a CSV geolocation snapshot, rejecting duplicate identical CIDRs.
    Rows that repeat a location's text share one ``Coordinate``."""
    db = GeoDb(())
    locations: dict[tuple[str, str], Coordinate] = {}
    name = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not "".join(row).strip():
                    continue
                if line == 1 and tuple(col.strip().lower() for col in row) == _HEADER:
                    continue
                network, prefixlen, location = _parse_geodb_row(row, name, line, locations)
                try:
                    db._add(network, prefixlen, location)
                except DuplicateCidr as exc:
                    raise DuplicateCidr(f"{path}:{line}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return db


@dataclass(frozen=True)
class GeoPath:
    """Localized route: coordinate sequence with no consecutive duplicates.

    ``origin_routes`` records the IP-level hop sequences that mapped onto
    this coordinate sequence.
    """

    nodes: tuple[Coordinate, ...]
    origin_routes: tuple[HopSequence, ...] = ()

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a geo-path needs at least 2 nodes")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a.key == b.key:
                raise ValueError("consecutive duplicate coordinates in geo-path")

    def sort_key(self) -> tuple[tuple[float, float], ...]:
        return tuple((n.lat, n.lon) for n in self.nodes)

    @cached_property
    def prepared(self) -> PreparedPath:
        """The nodes' and arcs' trigonometry, built on first use."""
        return PreparedPath(self.nodes)

    def __getstate__(self) -> dict[str, object]:
        # Pickles between processes carry the nodes; the prepared
        # trigonometry is rebuilt where it is used.
        return {"nodes": self.nodes, "origin_routes": self.origin_routes}


def route_to_geopath(route: HopSequence, db: GeoDb) -> GeoPath | None:
    """Localize one IP route; returns None when fewer than 2 nodes survive.

    Unresponsive and unlocatable hops are dropped; consecutive hops at the
    same location collapse to a single node.
    """
    nodes: list[Coordinate] = []
    last_key: tuple[float, float] | None = None
    for hop in route:
        if hop == UNRESPONSIVE:
            continue
        location = db.lookup(hop)
        if location is None:
            continue
        key = location.key
        if key == last_key:
            continue
        nodes.append(location)
        last_key = key
    if len(nodes) < 2:
        return None
    return GeoPath(nodes=tuple(nodes), origin_routes=(tuple(route),))


@dataclass(frozen=True)
class FilterStats:
    """Per-stage accounting for the endpoint-pair filter."""

    input_pairs: int
    removed_single_ip_route: int
    removed_single_geo_path: int

    @property
    def surviving_pairs(self) -> int:
        return self.input_pairs - self.removed_single_ip_route - self.removed_single_geo_path


def filter_pairs(
    route_sets: Mapping[Pair, RouteSet], db: GeoDb
) -> tuple[dict[Pair, tuple[GeoPath, ...]], FilterStats]:
    """Drop single-IP-route pairs, localize the rest, drop single-geo-path pairs.

    Stage two removes pairs left with fewer than 2 distinct coordinate
    sequences (pairs whose routes all localize identically, or cannot be
    localized at all). Survivors keep their distinct geo-paths in canonical
    (lexicographic coordinate) order, with origin routes merged per path.
    """
    kept: dict[Pair, tuple[GeoPath, ...]] = {}
    removed_stage1 = 0
    removed_stage2 = 0
    for pair in sorted(route_sets):
        route_set = route_sets[pair]
        if len(route_set.ip_routes) == 1:
            removed_stage1 += 1
            continue
        by_key: dict[tuple[tuple[float, float], ...], tuple[tuple[Coordinate, ...], list[HopSequence]]] = {}
        for route in route_set.ip_routes:
            geopath = route_to_geopath(route, db)
            if geopath is None:
                continue
            key = tuple(n.key for n in geopath.nodes)
            if key in by_key:
                by_key[key][1].extend(geopath.origin_routes)
            else:
                by_key[key] = (geopath.nodes, list(geopath.origin_routes))
        distinct = [
            GeoPath(nodes=nodes, origin_routes=tuple(sorted(origins)))
            for nodes, origins in by_key.values()
        ]
        if len(distinct) < 2:
            removed_stage2 += 1
            continue
        kept[pair] = tuple(sorted(distinct, key=GeoPath.sort_key))
    stats = FilterStats(
        input_pairs=len(route_sets),
        removed_single_ip_route=removed_stage1,
        removed_single_geo_path=removed_stage2,
    )
    return kept, stats
