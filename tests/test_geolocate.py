import os
import random
from ipaddress import IPv4Address, IPv4Network, ip_network
from typing import Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st
from corpus import CorpusSpec, build_corpus

from geodiv import Coordinate, GeoPath, ParseError, filter_pairs, geolocate, load_geodb, traces
from geodiv.geolocate import GeoDb, _add_row, _localize
from geodiv.traces import RouteSet
from oracles import brute_force_lookup, load_geodb_per_row, parse_geodb_row_ipaddress
from test_traces import outcome_from_pipe


def _db_of(entries: Iterable[tuple[IPv4Network, Coordinate]]) -> GeoDb:
    db = GeoDb()
    for network, location in entries:
        db._add(int(network.network_address), network.prefixlen, location)
    return db


def _db(*rows: tuple[str, float, float]) -> GeoDb:
    return _db_of((ip_network(cidr), Coordinate(lat, lon)) for cidr, lat, lon in rows)


def test_load_single_row(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/8,47.5,19.05\n", encoding="utf-8")
    db = load_geodb(path)
    assert len(db) == 1
    assert db.lookup("10.1.2.3") == Coordinate(47.5, 19.05)


def test_load_accepts_optional_header(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("cidr,lat,lon\n10.0.0.0/8,47.5,19.05\n", encoding="utf-8")
    assert len(load_geodb(path)) == 1


def test_load_rejects_duplicate_cidr(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/8,47.5,19.05\n10.0.0.0/8,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate CIDR 10.0.0.0/8$"):
        load_geodb(path)


def test_load_rejects_invalid_prefix(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/33,0,0\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_geodb(path)
    assert excinfo.value.line == 1


def test_load_rejects_bad_latitude(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/8,91.0,0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_geodb(path)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/8,47.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_geodb(path)


def test_load_rejects_ipv6(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("2001:db8::/32,0,0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_geodb(path)


def test_lookup_prefers_longest_prefix():
    db = _db(("10.0.0.0/8", 47.5, 19.05), ("10.1.0.0/16", 1.0, 2.0))
    assert db.lookup("10.1.2.3") == Coordinate(1.0, 2.0)
    assert db.lookup("10.2.2.3") == Coordinate(47.5, 19.05)


def test_lookup_miss_returns_none():
    db = _db(("10.0.0.0/8", 47.5, 19.05))
    assert db.lookup("192.0.2.1") is None


def test_lookup_host_route():
    db = _db(("10.0.0.0/8", 47.5, 19.05), ("10.3.4.5/32", -5.0, 5.0))
    assert db.lookup("10.3.4.5") == Coordinate(-5.0, 5.0)


def test_lookup_default_route_matches_everything():
    db = _db(("0.0.0.0/0", 3.0, 4.0))
    assert db.lookup("203.0.113.9") == Coordinate(3.0, 4.0)


def test_lookup_matches_brute_force_scan():
    rng = random.Random(1234)
    entries = {}
    while len(entries) < 10_000:
        plen = rng.randint(0, 32)
        base = rng.getrandbits(32)
        network = ip_network((base, plen), strict=False)
        key = (int(network.network_address), network.prefixlen)
        if key not in entries:
            entries[key] = (network, Coordinate(rng.uniform(-85, 85), rng.uniform(-179, 179)))
    pairs = list(entries.values())
    db = _db_of(pairs)
    for _ in range(2000):
        ip = str(IPv4Address(rng.getrandbits(32)))
        assert db.lookup(ip) == brute_force_lookup(pairs, ip)


def test_route_collapses_consecutive_duplicates():
    db = _db(("10.1.0.0/16", 0.0, 0.0), ("10.2.0.0/16", 0.0, 0.0), ("10.3.0.0/16", 5.0, 5.0))
    nodes = _localize(("10.1.0.1", "10.2.0.1", "10.3.0.1"), db)
    assert nodes == (Coordinate(0.0, 0.0), Coordinate(5.0, 5.0))


def test_route_with_one_locatable_hop_is_discarded():
    db = _db(("10.1.0.0/16", 0.0, 0.0))
    assert _localize(("*", "10.1.0.1"), db) == (Coordinate(0.0, 0.0),)
    routes = [("*", "10.1.0.1"), ("10.1.0.2",)]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    assert kept == {} and stats.removed_single_geo_path == 1


def test_route_drops_unlocatable_hops():
    db = _db(("10.1.0.0/16", 0.0, 0.0), ("10.3.0.0/16", 5.0, 5.0))
    nodes = _localize(("10.1.0.1", "198.51.100.7", "10.3.0.1"), db)
    assert len(nodes) == 2


def test_route_records_origin():
    db = _db(("10.1.0.0/16", 0.0, 0.0), ("10.3.0.0/16", 5.0, 5.0))
    route = ("10.1.0.1", "*", "10.3.0.1")
    kept, _ = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): [route, ("10.3.0.1", "10.1.0.1")]}), db)
    path = kept[("10.0.0.1", "10.9.0.1")][0]
    assert path.origin_routes == (route,)


def test_aliased_routes_map_to_equal_coordinate_sequences():
    db = _db(
        ("10.1.0.0/16", 0.0, 0.0),
        ("10.2.0.0/16", 0.0, 0.0),
        ("10.3.0.0/16", 5.0, 5.0),
    )
    a = _localize(("10.1.0.1", "10.3.0.1"), db)
    b = _localize(("10.2.0.1", "10.3.0.1"), db)
    assert a == b


def test_geopath_requires_two_distinct_nodes():
    with pytest.raises(ValueError):
        GeoPath(nodes=(Coordinate(0, 0),))
    with pytest.raises(ValueError):
        GeoPath(nodes=(Coordinate(0, 0), Coordinate(0, 0)))


def _route_sets(pairs: dict[tuple[str, str], list[tuple[str, ...]]]):
    return {
        pair: RouteSet(pair=pair, ip_routes=tuple(sorted(set(routes))))
        for pair, routes in pairs.items()
    }


def test_filter_removes_single_ip_route_pairs():
    db = _db(("10.0.0.0/8", 0.0, 0.0))
    route_sets = _route_sets({("10.0.0.1", "10.9.0.1"): [("10.1.0.1", "10.2.0.1")]})
    kept, stats = filter_pairs(route_sets, db)
    assert kept == {}
    assert stats.removed_single_ip_route == 1
    assert stats.removed_single_geo_path == 0


def test_filter_removes_pairs_with_one_geo_path():
    # Three IP routes, all localizing to the same two locations.
    db = _db(
        ("10.1.0.0/16", 0.0, 0.0),
        ("10.2.0.0/16", 0.0, 0.0),
        ("10.3.0.0/16", 5.0, 5.0),
    )
    routes = [("10.1.0.1", "10.3.0.1"), ("10.2.0.1", "10.3.0.1"), ("10.1.0.2", "10.3.0.2")]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    assert kept == {}
    assert stats.removed_single_geo_path == 1


def test_filter_removes_pairs_with_no_localizable_route():
    db = _db(("10.1.0.0/16", 0.0, 0.0))
    routes = [("198.51.100.1",), ("198.51.100.2",)]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    assert kept == {}
    assert stats.removed_single_geo_path == 1


def test_filter_keeps_pairs_with_distinct_geo_paths():
    db = _db(
        ("10.1.0.0/16", 0.0, 0.0),
        ("10.2.0.0/16", 3.0, 3.0),
        ("10.3.0.0/16", 5.0, 5.0),
    )
    routes = [("10.1.0.1", "10.3.0.1"), ("10.1.0.2", "10.2.0.1", "10.3.0.1")]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    assert stats.surviving_pairs == 1
    geopaths = kept[("10.0.0.1", "10.9.0.1")]
    assert len(geopaths) == 2


def test_filter_merges_origin_routes_of_identical_paths():
    db = _db(
        ("10.1.0.0/16", 0.0, 0.0),
        ("10.2.0.0/16", 0.0, 0.0),
        ("10.3.0.0/16", 5.0, 5.0),
        ("10.4.0.0/16", 6.0, 6.0),
    )
    routes = [
        ("10.1.0.1", "10.3.0.1"),
        ("10.2.0.1", "10.3.0.1"),
        ("10.1.0.1", "10.4.0.1"),
    ]
    kept, _ = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    geopaths = kept[("10.0.0.1", "10.9.0.1")]
    assert len(geopaths) == 2
    merged = next(p for p in geopaths if p.nodes[-1] == Coordinate(5.0, 5.0))
    assert len(merged.origin_routes) == 2


def test_filter_treats_near_identical_coordinates_as_equal():
    # Differences below 1e-6 degrees disappear; the two routes are one path.
    db = _db(
        ("10.1.0.0/16", 0.0, 0.0),
        ("10.2.0.0/16", 1e-9, 0.0),
        ("10.5.0.0/16", 5.0, 5.0),
    )
    routes = [("10.1.0.1", "10.5.0.1"), ("10.2.0.1", "10.5.0.1")]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), db)
    assert kept == {}
    assert stats.removed_single_geo_path == 1


def test_filter_accounting_and_survivor_invariants():
    rng = random.Random(7)
    db_rows = [("10.0.0.0/8", 0.0, 0.0)] + [
        (f"10.{i}.0.0/16", rng.uniform(-40, 40), rng.uniform(-40, 40)) for i in range(1, 40)
    ]
    db = _db(*db_rows)
    pairs = {}
    for p in range(30):
        pair = (f"172.16.0.{2 * p + 1}", f"172.16.0.{2 * p + 2}")
        n_routes = rng.randint(1, 5)
        routes = []
        for _ in range(n_routes):
            hops = tuple(f"10.{rng.randint(1, 39)}.0.1" for _ in range(rng.randint(0, 4)))
            routes.append(hops)
        pairs[pair] = routes
    route_sets = _route_sets(pairs)
    kept, stats = filter_pairs(route_sets, db)

    assert stats.input_pairs == len(route_sets)
    assert stats.surviving_pairs == len(kept)
    assert stats.removed_single_ip_route + stats.removed_single_geo_path <= stats.input_pairs
    for geopaths in kept.values():
        assert len(geopaths) >= 2
        assert len({p.nodes for p in geopaths}) == len(geopaths)
        for path in geopaths:
            assert len(path.nodes) >= 2
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert (round(a.lat, 6), round(a.lon, 6)) != (round(b.lat, 6), round(b.lon, 6))


def _parse_row(row, path, line):
    """(network, prefix length, location) of one row added by the loader's
    row checker."""
    db = GeoDb()
    _add_row(db, row, path, line, {})
    [(shift, table)] = db._by_shift.items()
    [(key, location)] = table.items()
    return key << shift, 32 - shift, location


def _row_outcome(parse, row):
    try:
        return parse(row, "geo.csv", 7), None
    except ParseError as exc:
        return None, (type(exc), str(exc), exc.line)


CIDR_CASES = [
    "10.0.0.0/8", "10.1.2.3/8", "10.1.2.3", "0.0.0.0/0", "255.255.255.255/32", "1.2.3.4/31",
    "10.0.0.0/08", "10.0.0.0/008", "10.0.0.0/033", "10.0.0.0/32", "10.0.0.0/33", "10.0.0.0/-1",
    "10.0.0.0/+8", "10.0.0.0/ 8", "10.0.0.0/", "/8", "10.0.0.0/8/8", "10.0.0.0/1e1",
    "10.0.0.0/\u0668", "10.0.0.0/255.0.0.0", "10.1.2.3/255.255.0.0", "10.0.0.0/0.255.255.255",
    "10.0.0.0/255.0.255.0", "010.0.0.0/8", "10.0.0/8", "1.2.3.4.5/8", "",
    "2001:db8::/32", "::ffff:10.0.0.1/128", "::/0", "not-a-prefix",
    # A prefix too long for int(): the address error must still come first.
    "x.0.0.0/" + "0" * 5000,
]


@pytest.mark.parametrize("cidr", CIDR_CASES)
def test_row_parser_matches_ip_network_on_edge_cases(cidr):
    row = [f" {cidr} ", "47.5", "19.05"]
    assert _row_outcome(_parse_row, row) == _row_outcome(parse_geodb_row_ipaddress, row)


@pytest.mark.parametrize(
    "row",
    [["10.0.0.0/8", "91", "0"], ["10.0.0.0/8", "x", "0"], ["10.0.0.0/8", "0"], ["10.0.0.0/8", "0", "0", "0"],
     ["10.0.0.0/33", "x", "0"], ["10.0.0.0/8", "1", "nan"]],
)
def test_malformed_rows_raise_the_same_error(row):
    assert _row_outcome(_parse_row, row) == _row_outcome(parse_geodb_row_ipaddress, row)


@given(
    st.integers(min_value=0, max_value=2**32 - 1).map(lambda n: str(IPv4Address(n))),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=40).map(str), st.text(max_size=4)),
)
def test_row_parser_matches_ip_network(address, prefix):
    cidr = address if prefix is None else f"{address}/{prefix}"
    row = [cidr, "1.5", "-2.5"]
    assert _row_outcome(_parse_row, row) == _row_outcome(parse_geodb_row_ipaddress, row)


def test_duplicate_cidr_message_is_located(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("cidr,lat,lon\n10.0.0.0/8,1,2\n10.1.0.0/16,1,2\n10.9.9.9/8,3,4\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_geodb(path)
    assert str(excinfo.value) == f"{path}:4: duplicate CIDR 10.0.0.0/8"
    assert isinstance(excinfo.value, ParseError)
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 4)
    with pytest.raises(ParseError, match=r"^duplicate CIDR 10\.0\.0\.0/8$"):
        _db(("10.0.0.0/8", 0.0, 0.0), ("10.0.0.0/8", 1.0, 1.0))


_ANTIMERIDIAN_DB = (
    ("10.1.0.0/16", 10.0, 170.0),
    ("10.2.0.0/16", 10.0, 179.9999999),
    ("10.3.0.0/16", 10.0, -180.0),
)


def test_route_collapses_across_the_antimeridian():
    nodes = _localize(("10.1.0.1", "10.2.0.1", "10.3.0.1"), _db(*_ANTIMERIDIAN_DB))
    assert nodes == (Coordinate(10.0, 170.0), Coordinate(10.0, 179.9999999))


def test_routes_differing_across_the_antimeridian_are_one_geo_path():
    routes = [("10.1.0.1", "10.2.0.1"), ("10.1.0.1", "10.3.0.1")]
    kept, stats = filter_pairs(_route_sets({("10.0.0.1", "10.9.0.1"): routes}), _db(*_ANTIMERIDIAN_DB))
    assert kept == {}
    assert stats.removed_single_geo_path == 1


def _tables(db: GeoDb) -> dict[int, dict[int, str]]:
    # repr keeps every float bit, the sign of zero included.
    return {shift: {key: repr(c) for key, c in table.items()} for shift, table in db._by_shift.items()}


_REPEATED_LOCATIONS = (
    "cidr,lat,lon\n"
    "10.0.0.0/8,1.0,2.5\n"
    "11.0.0.0/8, 1.0 ,2.5 \n"
    "12.0.0.0/8,1.00,2.5\n"
    "13.0.0.0/8,-0.0,190\n"
    "14.0.0.0/8,0.0,-170\n"
    "15.0.0.0/8,-0.0,190\n"
    "16.0.0.0/8,1e0,2.5\n"
    "17.0.0.0/8,1.0,2.5\n"
)


def test_load_matches_per_row_construction(small_pool, many_pool, tmp_path):
    small = CorpusSpec("small", {1: 8, 2: 10, 3: 6}, single_route=24, single_geopath=12)
    many = CorpusSpec("many", {4: 3, 5: 2, 6: 1, 7: 1})
    paths = []
    for spec, pool in ((small, small_pool), (many, many_pool)):
        directory = tmp_path / spec.pool
        directory.mkdir()
        paths.append(build_corpus(spec, 3, pool).write(directory)[1])
    handmade = tmp_path / "handmade.csv"
    handmade.write_text(_REPEATED_LOCATIONS, encoding="utf-8")
    for path in (*paths, handmade):
        tables = _tables(load_geodb(path))
        assert sum(map(len, tables.values())) >= 8
        assert tables == _tables(load_geodb_per_row(path))


def test_rows_with_identical_location_text_share_one_coordinate(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text(_REPEATED_LOCATIONS, encoding="utf-8")
    db = load_geodb(path)
    at = {first: db.lookup(f"{first}.1.2.3") for first in range(10, 18)}
    assert at[10] is at[11] is at[17]  # the same text once stripped
    assert at[13] is at[15]
    # Different texts of one place: distinct objects, equal coordinates.
    for first in (12, 16):
        assert at[first] is not at[10]
        assert at[first] == at[10] and at[first].key == at[10].key
    assert at[14] == at[13] == Coordinate(0.0, -170.0)


@pytest.mark.parametrize("bad_line", [2, 3])
def test_invalid_location_fails_at_its_first_row(tmp_path, bad_line):
    rows = ["10.0.0.0/8,1.0,2.0", "11.0.0.0/8,1.0,2.0", "12.0.0.0/8,1.0,2.0", "13.0.0.0/8,91,2.0"]
    rows[bad_line - 1] = rows[bad_line - 1].split(",")[0] + ",91,2.0"
    path = tmp_path / "geo.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_geodb(path)
    with pytest.raises(ParseError) as expected:
        parse_geodb_row_ipaddress(rows[bad_line - 1].split(","), str(path), bad_line)
    assert excinfo.value.line == bad_line
    assert str(excinfo.value) == str(expected.value)


def _load_outcome(load, path):
    """(tables, None) when ``load`` accepts the file, (None, (message,
    line)) when it raises ``ParseError``."""
    try:
        return _tables(load(path)), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


_ROWS = "cidr,lat,lon\n10.0.0.0/8,1.0,2.5\n10.1.0.0/16,-3.5,170\n"
_PAST_FIRST_BLOCK = "".join(f"11.{i // 256}.{i % 256}.0/24,1.5,{i % 90}\n" for i in range(500))

GEODB_FILES = {
    "crlf": _ROWS.replace("\n", "\r\n").encode(),
    "lone-cr": _ROWS.replace("\n", "\r").encode(),
    "crlf-bad-late": (_ROWS + "10.2.0.0/16,91,0\n").replace("\n", "\r\n").encode(),
    "cr-after-plain-rows": (_ROWS + "12.0.0.0/8,1,2\r\n13.0.0.0/8,1.0,2.5\r\n").encode(),
    "no-final-newline": _ROWS.rstrip("\n").encode(),
    "blank-rows": f"\n{_ROWS}\n  \n,,\n , ,\t\n12.0.0.0/8,1,1\n".encode(),
    "header-variants": b" CIDR , Lat,LON \n10.0.0.0/8,1,2\n",
    "header-not-first": f"10.0.0.0/8,1,2\n{_ROWS}".encode(),
    "blank-three-column-row": b"10.0.0.0/8,1,2\n , ,\t\n11.0.0.0/8,1,2\n",
    "mixed-case-header": b"CIDR,Lat,LON\n10.0.0.0/8,1,2\n",
    "header-on-line-2": b"10.0.0.0/8,1,2\ncidr,lat,lon\n",
    "padded-columns": b"  10.0.0.0/8 ,  1.0 ,2.5\t\n\t11.0.0.0/8,1.0 ,  2.5  \n12.0.0.0/8 , 1.0,2.5\n",
    "quoted-fields": b'cidr,lat,lon\n"10.0.0.0/8","1.0","2.5"\n11.0.0.0/8,"1.0",2.5\n"12.0.0.0/8",1,2\n',
    "quoted-comma": b'10.0.0.0/8,1,2\n"11.0.0.0/8,1",1,2\n',
    "quoted-bad-late": b'"10.0.0.0/8",1,2\n11.0.0.0/8,1,2\n11.0.0.0/8,3,4\n',
    "unterminated-quote": b'10.0.0.0/8,1,2\n"11.0.0.0/8,1,2\n',
    "nul": b"10.0.0.0/8,1,2\n11.0.0.0/8,1\x00,2\n",
    "nul-in-cidr": b"10.0.0.0/8,1,2\n11.0.0.0/8\x00,1,2\n",
    "field-over-limit": f"10.0.0.0/8,1,2\n11.0.0.0/8,1,{'2' * 131_073}\n".encode(),
    "line-over-limit": f"10.0.0.0/8,1,2\n11.0.0.0/8,1,2{',' * 131_073}\n".encode(),
    "long-field-under-limit": f"10.0.0.0/8,1,2\n11.0.0.0/8,1,2{'0' * 131_000}\n".encode(),
    "no-prefix-length": b"10.1.2.3,1,2\n10.1.2.4/32,1,2\n",
    "host-bits-and-leading-zero-prefix": b"10.1.2.3/08,1,2\n11.0.0.0/0,1,2\n",
    "netmask": b"10.0.0.0/255.0.0.0,1,2\n10.0.0.0/8,1,2\n",
    "duplicate-in-netmask-form": b"10.0.0.0/8,1,2\n10.9.9.9/255.0.0.0,3,4\n",
    "duplicate-after-no-prefix": b"10.1.2.3,1,2\n10.1.2.3/32,3,4\n",
    "duplicate-with-bad-location": b"10.0.0.0/8,1,2\n10.0.0.0/8,91,2\n",
    "leading-zero-octet": b"10.0.0.0/8,1,2\n010.0.0.0/8,1,2\n",
    "ipv6": b"10.0.0.0/8,1,2\n2001:db8::/32,1,2\n",
    "three-digit-prefix": b"10.0.0.0/8,1,2\n10.0.0.0/008,1,2\n",
    "bad-latitude": b"10.0.0.0/8,1,2\n11.0.0.0/8,-90.5,2\n",
    "nan-latitude": b"10.0.0.0/8,1,2\n11.0.0.0/8,nan,2\n",
    "infinite-longitude": b"10.0.0.0/8,1,2\n11.0.0.0/8,1,-inf\n",
    "longitude-past-180": b"10.0.0.0/8,1,190\n11.0.0.0/8,1,-170\n12.0.0.0/8,1,540\n",
    "bad-location-text-repeated": b"10.0.0.0/8,x,2\n11.0.0.0/8,x,2\n",
    "good-location-text-repeated-badly-padded": b"10.0.0.0/8,1,2\n11.0.0.0/8, 1,2 x\n",
    "unicode-digits": "10.0.0.0/8,\u0661,2\n11.0.0.0/\u0668,1,2\n".encode(),
    "two-columns": b"10.0.0.0/8,1,2\n11.0.0.0/8,1\n",
    "four-columns": b"10.0.0.0/8,1,2\n11.0.0.0/8,1,2,\n",
    "bad-byte-in-first-block": b"10.0.0.0/8,1,2\nbogus,1,2\n11.0.0.0/8,1,\xff\n",
    "bad-byte-past-first-block": f"10.0.0.0/8,1,2\nbogus,1,2\n{_PAST_FIRST_BLOCK}".encode() + b"\xff\n",
    "bad-byte-after-duplicate": (
        f'{_PAST_FIRST_BLOCK}10.0.0.0/8,1,2\n10.0.0.0/8,1,2\n{_PAST_FIRST_BLOCK.replace("11.", "12.")}'
    ).encode() + b"\xff\n",
    "bad-byte-after-quote": f'"10.0.0.0/8",1,2\nbogus,1,2\n{_PAST_FIRST_BLOCK}'.encode() + b"\xff\n",
    "bad-byte-before-bad-cidr": b"10.0.0.0/8,1,2\n11.0.0.0/8,1,\xff\nbogus,1,2\n",
    "crlf-bad-byte": b"10.0.0.0/8,1,2\r\n11.0.0.0/8,1,2\r\n12.0.0.0/8,\xff,2\r\n",
    "lone-cr-bad-byte": b"10.0.0.0/8,1,2\r11.0.0.0/8,1,2\r12.0.0.0/8,\xff,2\r",
    "cr-then-lf-bad-byte": b"10.0.0.0/8,1,2\r11.0.0.0/8,1,2\n12.0.0.0/8,\xff,2\n",
    "bom-bad-byte-on-line-1": b"\xef\xbb\xbf10.0.0.0/8,1,\xff\n11.0.0.0/8,1,2\n",
    "bad-byte-in-quoted-field-across-lines": b'10.0.0.0/8,1,2\n"11.0.\n0.0/8\xff",1,2\n12.0.0.0/8,1,2\n',
}


@pytest.mark.parametrize("content", GEODB_FILES.values(), ids=GEODB_FILES.keys())
def test_load_matches_per_row_loader_on_handmade_files(tmp_path, content):
    path = tmp_path / "geo.csv"
    path.write_bytes(content)
    assert _load_outcome(load_geodb, path) == _load_outcome(load_geodb_per_row, path)


@pytest.mark.parametrize("name", ["lone-cr-bad-byte", "cr-then-lf-bad-byte"])
def test_a_bad_byte_is_on_the_line_a_text_read_counts(tmp_path, name):
    path = tmp_path / "geo.csv"
    path.write_bytes(GEODB_FILES[name])
    with pytest.raises(ParseError, match="not valid UTF-8") as excinfo:
        load_geodb(path)
    assert excinfo.value.line == 3


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("name", ["clean", "bad-row-late", "bad-byte-late"])
def test_load_reads_a_pipe_once(tmp_path, name):
    """A snapshot from a pipe loads, or fails at its line and offset, as
    the same file does."""
    content = {
        "clean": f"{_ROWS}{_PAST_FIRST_BLOCK}".encode(),
        "bad-row-late": f"{_ROWS}{_PAST_FIRST_BLOCK}bogus,1,2\n".encode(),
        "bad-byte-late": f"{_ROWS}{_PAST_FIRST_BLOCK}".encode() + b"12.0.0.0/8,1,\xff\n13.0.0.0/8,1,2\n",
    }[name]
    regular = tmp_path / "geo.csv"
    regular.write_bytes(content)
    db, error = outcome_from_pipe(load_geodb, content, regular)
    outcome = (None if db is None else _tables(db), error)
    assert outcome == _load_outcome(load_geodb, regular) == _load_outcome(load_geodb_per_row, regular)
    assert (error is None) == (name == "clean")


def test_errors_name_the_physical_line_a_row_starts_on(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text('cidr,lat,lon\n"10.0.0.0/8",1,"2\n"\n11.0.0.0/8,1,2\nbogus,1,2\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r":5: invalid CIDR 'bogus'") as excinfo:
        load_geodb(path)
    assert excinfo.value.line == 5
    # A row with a quoted line break is numbered by its first line.
    path.write_text('"10.0.0.0/8",1,"2\n"\n"bo\ngus",1,2\n', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_geodb(path)
    assert excinfo.value.line == 3 and excinfo.value.reason.startswith("invalid CIDR 'bo\\ngus'")


def test_load_accepts_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_bytes(f"\ufeff{_ROWS}".encode())
    plain = tmp_path / "plain.csv"
    plain.write_bytes(_ROWS.encode())
    assert _tables(load_geodb(path)) == _tables(load_geodb(plain))
    path.write_bytes(f'\ufeff"10.0.0.0/8",1,2\n'.encode())
    assert len(load_geodb(path)) == 1
    # Only the first one: a second one is part of the first column.
    path.write_bytes(f"\ufeff\ufeff{_ROWS}".encode())
    with pytest.raises(ParseError, match=r":1: invalid CIDR '\\ufeffcidr'"):
        load_geodb(path)


def test_a_clean_corpus_never_reaches_the_per_line_parsers(small_pool, tmp_path, monkeypatch):
    """On a corpus of the benchmark's ``mixed`` shape, each distinct trace
    address is parsed once and at most the header goes through
    ``ip_network``."""
    addresses, networks = [], []

    def count(calls, fn):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(traces, "parse_ipv4", count(addresses, traces.parse_ipv4))
    monkeypatch.setattr(geolocate, "ip_network", count(networks, geolocate.ip_network))
    spec = CorpusSpec("small", {1: 210, 2: 240, 3: 150}, single_route=600, single_geopath=300, min_lines=11000)
    trace_path, geodb_path = build_corpus(spec, 5, small_pool).write(tmp_path)
    records = traces.parse_trace_file(trace_path)
    assert len(records) == 11000
    assert len(geolocate.load_geodb(geodb_path)) > 20000
    distinct = {a for r in records for a in (r.src, r.dst, *r.hops)} - {traces.UNRESPONSIVE}
    assert sorted(args for (args,) in addresses) == sorted(distinct)
    assert len(networks) <= 1
