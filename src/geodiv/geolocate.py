"""IP-to-location mapping from a CSV snapshot, geo-path construction and
the two-stage (single-IP-route, single-geo-path) pair filter.

Snapshot format: CSV rows ``cidr,lat,lon`` with an optional header line.
Lookups resolve overlapping prefixes longest-prefix-first.
"""

from __future__ import annotations

import csv
from functools import cached_property
from ipaddress import IPv4Address, IPv4Network, ip_network
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import ParseError, read_lines
from .geodesy import Coordinate, PreparedPath
from .traces import HopSequence, Pair, RouteSet, UNRESPONSIVE, parse_ipv4

_HEADER = ("cidr", "lat", "lon")


class GeoDb:
    """Longest-prefix-match table from IPv4 prefixes to coordinates."""

    def __init__(self) -> None:
        # Per prefix length, longest prefix first, a table from the network
        # address shifted right by ``shift = 32 - prefixlen`` to the location.
        self._by_shift: dict[int, dict[int, Coordinate]] = {}

    def _add(self, network: int, prefixlen: int, location: Coordinate,
             path: str | None = None, line: int | None = None) -> None:
        """Add the prefix of ``network``'s first ``prefixlen`` bits; a
        repeated one is a ``ParseError`` located at the snapshot's ``path``
        and ``line`` when they are given."""
        shift = 32 - prefixlen
        table = self._by_shift.get(shift)
        if table is None:
            self._by_shift[shift] = table = {}
            self._by_shift = dict(sorted(self._by_shift.items()))
        key = network >> shift
        if key in table:
            raise ParseError(f"duplicate CIDR {IPv4Network((key << shift, prefixlen))}", path=path, line=line)
        table[key] = location

    def __len__(self) -> int:
        return sum(len(table) for table in self._by_shift.values())

    def lookup(self, ip: str | IPv4Address) -> Coordinate | None:
        """Location of the longest matching prefix, or None when uncovered."""
        ip_int = parse_ipv4(ip)
        for shift, table in self._by_shift.items():
            location = table.get(ip_int >> shift)
            if location is not None:
                return location
        return None


# The prefix lengths of the plain ``a.b.c.d/len`` form, by their text: at
# most two ASCII digits, at most 32.
_PREFIX_LENGTHS = {**{str(n): n for n in range(33)}, **{f"{n:02}": n for n in range(10)}}


def _add_row(
    db: GeoDb, row: list[str], path: str, line: int, locations: dict[tuple[str, str], Coordinate]
) -> None:
    """Add one snapshot row that starts on physical line ``line``, skipping
    a blank row and a line-1 header, or raise the located error of its
    first fault. An ``a.b.c.d`` or ``a.b.c.d/len`` prefix's address is read
    with ``parse_ipv4``; any other form goes to
    ``ip_network(cidr, strict=False)``, which accepts it or words its
    error. ``locations`` maps the stripped ``(lat, lon)`` texts seen so far
    to their coordinate, so rows that repeat a location share one."""
    if len(row) != 3:
        if not "".join(row).strip():
            return
        raise ParseError(f"expected 3 columns, got {len(row)}", path=path, line=line)
    cidr_text, lat_text, lon_text = row[0].strip(), row[1].strip(), row[2].strip()
    address, slash, prefix = cidr_text.partition("/")
    prefixlen = _PREFIX_LENGTHS.get(prefix) if slash else 32
    try:
        network = parse_ipv4(address)
    except ValueError:
        prefixlen = None
    if prefixlen is None:
        if not (cidr_text or lat_text or lon_text):
            return
        if line == 1 and (cidr_text.lower(), lat_text.lower(), lon_text.lower()) == _HEADER:
            return
        try:
            parsed = ip_network(cidr_text, strict=False)
        except ValueError as exc:
            raise ParseError(f"invalid CIDR {cidr_text!r}: {exc}", path=path, line=line) from exc
        if not isinstance(parsed, IPv4Network):
            raise ParseError(f"not an IPv4 prefix: {cidr_text!r}", path=path, line=line)
        network, prefixlen = int(parsed.network_address), parsed.prefixlen
    location = locations.get((lat_text, lon_text))
    if location is None:
        try:
            location = locations[lat_text, lon_text] = Coordinate(float(lat_text), float(lon_text))
        except ValueError as exc:
            raise ParseError(f"invalid coordinates: {exc}", path=path, line=line) from exc
    db._add(network, prefixlen, location, path, line)


def load_geodb(path: str | Path) -> GeoDb:
    """Load a CSV geolocation snapshot, rejecting duplicate identical CIDRs.
    An error names the physical line its row starts on, a bad byte its own
    line. Rows that repeat a location's text share one ``Coordinate``."""
    db = GeoDb()
    locations: dict[tuple[str, str], Coordinate] = {}
    name = str(path)
    reader = csv.reader(read_lines(path))
    line = 1
    try:
        for row in reader:
            _add_row(db, row, name, line, locations)
            line = reader.line_num + 1
    except csv.Error as exc:  # such as a field past the csv module's size limit
        raise ParseError(f"malformed CSV: {exc}", path=name, line=reader.line_num) from None
    return db


class _GeoPathFields(NamedTuple):
    nodes: tuple[Coordinate, ...]
    origin_routes: tuple[HopSequence, ...] = ()


class GeoPath(_GeoPathFields):
    """Localized route: coordinate sequence with no consecutive duplicates.

    ``origin_routes`` records the IP-level hop sequences that mapped onto
    this coordinate sequence.
    """

    def __new__(cls, nodes: tuple[Coordinate, ...], origin_routes: tuple[HopSequence, ...] = ()) -> GeoPath:
        if len(nodes) < 2:
            raise ValueError("a geo-path needs at least 2 nodes")
        for a, b in zip(nodes, nodes[1:]):
            if a.key == b.key:
                raise ValueError("consecutive duplicate coordinates in geo-path")
        return super().__new__(cls, nodes, origin_routes)

    def sort_key(self) -> tuple[tuple[float, float], ...]:
        return tuple((n.lat, n.lon) for n in self.nodes)

    @cached_property
    def prepared(self) -> PreparedPath:
        """The nodes' and arcs' trigonometry, built on first use."""
        return PreparedPath(self.nodes)

    def __getstate__(self) -> None:
        # Pickles between processes carry the nodes; the prepared
        # trigonometry is rebuilt where it is used.
        return None


def _localize(route: HopSequence, db: GeoDb) -> tuple[Coordinate, ...]:
    """The located nodes of one IP route: unresponsive and unlocatable hops
    are dropped, and consecutive hops at the same location collapse to a
    single node."""
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
    return tuple(nodes)


class FilterStats(NamedTuple):
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
            nodes = _localize(route, db)
            if len(nodes) < 2:
                continue
            key = tuple(n.key for n in nodes)
            if key in by_key:
                by_key[key][1].append(route)
            else:
                by_key[key] = (nodes, [route])
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
