import os
import random
import threading
from ipaddress import AddressValueError, IPv4Address

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from corpus import CorpusSpec, build_corpus

from geodiv import traces
from geodiv import ParseError, group_by_pair, parse_trace_file
from geodiv.errors import read_lines
from geodiv.traces import TraceRecord, parse_ipv4
from oracles import not_utf8, parse_trace_file_per_line


def _parse_line(tmp_path, line):
    """The one record of a trace file that holds ``line`` alone."""
    path = tmp_path / "t.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (record,) = parse_trace_file(path)
    return record


def test_parse_basic_record(tmp_path):
    line = '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1","*","10.2.0.1"]}'
    record = _parse_line(tmp_path, line)
    assert record == TraceRecord(src="10.0.0.1", dst="10.9.0.1", hops=("10.1.0.1", "*", "10.2.0.1"))


def test_parse_empty_hops(tmp_path):
    record = _parse_line(tmp_path, '{"src":"10.0.0.1","dst":"10.9.0.1","hops":[]}')
    assert record.hops == ()


def test_parse_rejects_non_json(tmp_path):
    with pytest.raises(ParseError):
        _parse_line(tmp_path, "not json")


def test_parse_rejects_missing_keys(tmp_path):
    with pytest.raises(ParseError):
        _parse_line(tmp_path, '{"src":"10.0.0.1","hops":[]}')


def test_parse_rejects_bad_address(tmp_path):
    with pytest.raises(ParseError) as excinfo:
        _parse_line(tmp_path, '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["999.1.1.1"]}')
    assert excinfo.value.reason == "field 'hops[0]': Octet 999 (> 255) not permitted in '999.1.1.1'"
    with pytest.raises(ParseError) as excinfo:
        _parse_line(tmp_path, '{"src":"nope","dst":"10.9.0.1","hops":[]}')
    assert excinfo.value.reason == "field 'src': Expected 4 octets in 'nope'"


def test_invalid_address_is_a_parse_error(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(2 * f"{_GOOD}\n" + '{"src":"10.0.0.1","dst":"nope","hops":[]}\n', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(path)
    assert type(excinfo.value) is ParseError
    assert str(excinfo.value) == f"{path}:3: field 'dst': Expected 4 octets in 'nope'"


def test_parse_rejects_non_string_hop(tmp_path):
    with pytest.raises(ParseError):
        _parse_line(tmp_path, '{"src":"10.0.0.1","dst":"10.9.0.1","hops":[42]}')


def test_parse_ignores_unknown_keys(tmp_path):
    record = _parse_line(tmp_path, '{"src":"10.0.0.1","dst":"10.9.0.1","hops":[],"rtt_ms":3}')
    assert record.src == "10.0.0.1"


def test_parse_file_reports_line_numbers(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text(
        '{"src":"10.0.0.1","dst":"10.9.0.1","hops":[]}\n\nbroken\n', encoding="utf-8"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(path)
    assert excinfo.value.line == 3


def test_parse_file_skips_blank_lines(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('\n{"src":"10.0.0.1","dst":"10.9.0.1","hops":[]}\n\n', encoding="utf-8")
    assert len(parse_trace_file(path)) == 1


def _record(src, dst, hops):
    return TraceRecord(src=src, dst=dst, hops=tuple(hops))


def test_group_deduplicates_identical_routes():
    r = _record("10.0.0.1", "10.9.0.1", ["10.1.0.1", "10.2.0.1"])
    grouped = group_by_pair([r, r])
    assert len(grouped) == 1
    assert grouped[("10.0.0.1", "10.9.0.1")].ip_routes == (("10.1.0.1", "10.2.0.1"),)


def test_group_strips_unresponsive_markers_before_dedup():
    a = _record("10.0.0.1", "10.9.0.1", ["10.1.0.1", "*", "10.2.0.1"])
    b = _record("10.0.0.1", "10.9.0.1", ["10.1.0.1", "10.2.0.1", "*"])
    grouped = group_by_pair([a, b])
    assert grouped[("10.0.0.1", "10.9.0.1")].ip_routes == (("10.1.0.1", "10.2.0.1"),)


def test_group_keeps_seven_distinct_routes():
    records = [
        _record("10.0.0.1", "10.9.0.1", [f"10.1.{i}.1", "10.2.0.1"]) for i in range(7)
    ]
    grouped = group_by_pair(records)
    assert len(grouped[("10.0.0.1", "10.9.0.1")].ip_routes) == 7


def test_group_separates_pairs_and_sorts_keys():
    records = [
        _record("10.0.0.2", "10.9.0.1", ["10.1.0.1"]),
        _record("10.0.0.1", "10.9.0.1", ["10.1.0.1"]),
    ]
    grouped = group_by_pair(records)
    assert list(grouped) == [("10.0.0.1", "10.9.0.1"), ("10.0.0.2", "10.9.0.1")]


def test_group_insensitive_to_record_order():
    records = [
        _record("10.0.0.1", "10.9.0.1", [f"10.1.{i}.1"]) for i in range(5)
    ] + [_record("10.0.0.2", "10.9.0.1", ["10.3.0.1"])]
    shuffled = list(records)
    random.Random(5).shuffle(shuffled)
    assert group_by_pair(records) == group_by_pair(shuffled)


def test_group_idempotent_on_its_own_output():
    records = [
        _record("10.0.0.1", "10.9.0.1", ["10.1.0.1", "*", "10.2.0.1"]),
        _record("10.0.0.1", "10.9.0.1", ["10.1.0.1", "10.2.0.1"]),
        _record("10.0.0.1", "10.9.0.1", ["10.5.0.1"]),
        _record("10.0.0.3", "10.9.0.1", ["10.6.0.1"]),
    ]
    grouped = group_by_pair(records)
    flattened = [
        _record(pair[0], pair[1], route)
        for pair, route_set in grouped.items()
        for route in route_set.ip_routes
    ]
    regrouped = group_by_pair(flattened)
    assert regrouped == grouped


def test_group_counts_match_brute_force():
    rng = random.Random(17)
    hops_pool = [f"10.4.{i}.1" for i in range(4)]
    records = []
    for _ in range(60):
        hops = [rng.choice(hops_pool) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            hops.insert(rng.randint(0, len(hops)), "*")
        records.append(_record("10.0.0.1", "10.9.0.1", hops))
    grouped = group_by_pair(records)

    stripped = [tuple(h for h in r.hops if h != "*") for r in records]
    distinct = [
        route
        for i, route in enumerate(stripped)
        if all(stripped[j] != route for j in range(i))
    ]
    assert len(grouped[("10.0.0.1", "10.9.0.1")].ip_routes) == len(distinct)


def _ipv4_outcome(parse, text):
    """(int, None) when ``parse`` accepts ``text``, (None, message) when it
    raises ``AddressValueError``."""
    try:
        return int(parse(text)), None
    except AddressValueError as exc:
        return None, str(exc)


IPV4_CASES = [
    "0.0.0.0", "255.255.255.255", "1.2.3.4", "10.0.0.1", "100.200.10.0",
    "01.2.3.4", "1.2.3.04", "1.2.3.00", "00.0.0.0", "0000.1.1.1", "1.2.3.1000",
    "1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3", "1..2.3", "", ".", "...",
    "256.0.0.1", "1.2.3.256", "999.1.1.1", "-1.2.3.4", "+1.2.3.4", "1_0.2.3.4",
    "0x1.2.3.4", "0x01020304", "16909060", "1.2.3.4 ", " 1.2.3.4", "1.2.3.4\n",
    "1.2.3.4\x00", "1.2\x00.3.4", "1.2.3.4/32", "1.2.3.4%eth0", "::1", "::ffff:1.2.3.4",
    "\u0661.2.3.4", "\uff11.2.3.4", "1.2.3.\u00b2", "1.2.3.\u0664", "\ud800.1.1.1", "*",
]


@pytest.mark.parametrize("text", IPV4_CASES)
def test_parse_ipv4_matches_ipaddress_on_edge_cases(text):
    assert _ipv4_outcome(parse_ipv4, text) == _ipv4_outcome(IPv4Address, text)


_octet_like = st.text(alphabet="0123456789x ._-\u0661\uff11\x00", max_size=4)


@given(
    st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1).map(lambda n: str(IPv4Address(n))),
        st.lists(_octet_like, min_size=1, max_size=6).map(".".join),
        st.text(max_size=20),
    )
)
def test_parse_ipv4_matches_ipaddress(text):
    assert _ipv4_outcome(parse_ipv4, text) == _ipv4_outcome(IPv4Address, text)


def test_parse_file_checks_each_distinct_address_once(tmp_path, monkeypatch):
    seen = []

    def counting(text):
        seen.append(text)
        return parse_ipv4(text)

    monkeypatch.setattr(traces, "parse_ipv4", counting)
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1","*","10.1.0.1","10.2.0.1"]}\n'
        '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.2.0.1","10.9.0.1"]}\n',
        encoding="utf-8",
    )
    records = parse_trace_file(path)
    assert [r.hops for r in records] == [("10.1.0.1", "*", "10.1.0.1", "10.2.0.1"), ("10.2.0.1", "10.9.0.1")]
    assert sorted(seen) == ["10.0.0.1", "10.1.0.1", "10.2.0.1", "10.9.0.1"]


def _file_outcome(parse, path):
    """(records, None) when ``parse`` accepts the file, (None, (message,
    line)) when it raises ``ParseError``."""
    try:
        return parse(path), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


def test_parse_file_matches_per_line_parser_on_generated_corpora(small_pool, many_pool, tmp_path):
    for name, spec, pool in (
        ("small", CorpusSpec("small", {1: 8, 2: 10, 3: 6}, single_route=24, single_geopath=12), small_pool),
        ("many", CorpusSpec("many", {4: 3, 5: 2, 6: 1, 7: 1}), many_pool),
    ):
        directory = tmp_path / name
        directory.mkdir()
        path, _ = build_corpus(spec, 11, pool).write(directory)
        records, error = _file_outcome(parse_trace_file, path)
        assert error is None and len(records) > 100
        assert (records, error) == _file_outcome(parse_trace_file_per_line, path)


_GOOD = '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1","*","10.2.0.1"]}'
_OTHER = '{"src":"10.0.0.2","dst":"10.9.0.1","hops":[],"note":"x"}'
# About 10 KiB of good lines: more than the 8 KiB that a text read
# decodes at once.
_PAST_FIRST_BLOCK = 140 * (_GOOD + "\n")

TRACE_FILES = {
    "crlf": f"{_GOOD}\r\n{_OTHER}\r\n".encode(),
    "lone-cr": f"{_GOOD}\r{_OTHER}\r".encode(),
    "crlf-bad-late": f"{_GOOD}\r\n{_OTHER}\r\n{{broken\r\n".encode(),
    "separators-in-strings": (
        _GOOD[:-1] + ',"note":"a\u2028b\x0cc\x85d\u2029e\x1cf"}\n' + _OTHER + "\n"
    ).encode(),
    "blank-and-whitespace-lines": f"\n  \t \n{_GOOD}\n\n \x0c \n{_OTHER}\n   ".encode(),
    "no-final-newline": f"{_GOOD}\n{_OTHER}".encode(),
    "bad-json-no-final-newline": f"{_GOOD}\n{{".encode(),
    "nested-hop": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[["10.1.0.1"]]}}\n'.encode(),
    "object-hop": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[{{"a":1}}]}}\n'.encode(),
    "number-hop": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":["*",42]}}\n'.encode(),
    "null-hop": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[null]}}\n'.encode(),
    "hops-not-array": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":"10.1.0.1"}}\n'.encode(),
    "marker-src": f'{_GOOD}\n{{"src":"*","dst":"10.9.0.1","hops":[]}}\n'.encode(),
    "marker-dst": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"*","hops":["*"]}}\n'.encode(),
    "number-src": f'{_GOOD}\n{{"src":1,"dst":"10.9.0.1","hops":[]}}\n'.encode(),
    "missing-hops": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1"}}\n'.encode(),
    "not-an-object": f"{_GOOD}\n[1, 2]\n".encode(),
    "json-string-line": f'{_GOOD}\n"x"\n'.encode(),
    "missing-src": f'{_GOOD}\n{{"dst":"10.9.0.1","hops":[]}}\n'.encode(),
    "true-hop": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1",true]}}\n'.encode(),
    "array-src": f'{_GOOD}\n{{"src":["10.0.0.1"],"dst":"10.9.0.1","hops":[]}}\n'.encode(),
    "bad-address-after-new-good-one": (
        f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1","10.4.0.1","10.4.0.256"]}}\n'
    ).encode(),
    "bad-address-first-seen-late": (
        50 * (_GOOD + "\n") + '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1","10.1.0.01"]}\n'
        + '{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.01"]}\n'
    ).encode(),
    "bad-address-before-bad-json": (
        f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.256","hops":[]}}\n{{broken\n'
    ).encode(),
    "nested-over-500": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[],"x":{"[" * 501}{"]" * 501}}}\n'.encode(),
    "nested-500": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[],"x":{"[" * 499}{"]" * 499}}}\n'.encode(),
    "5000-digit-integer": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[],"x":{"7" * 5000}}}\n'.encode(),
    "nul-in-string": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1\x00"]}}\n'.encode(),
    "escaped-nul-address": f'{_GOOD}\n{{"src":"10.0.0.1","dst":"10.9.0.1","hops":["10.1.0.1\\u0000"]}}\n'.encode(),
    "mid-file-bom": f"{_GOOD}\n\ufeff{_OTHER}\n".encode(),
    "bad-byte-in-first-block": f"{_GOOD}\n{{broken\n".encode() + b'{"src":"\xff"}\n',
    "bad-byte-past-first-block": f"{_GOOD}\n{{broken\n{_PAST_FIRST_BLOCK}".encode() + b'{"src":"\xff"}\n',
    "bad-byte-after-bad-address": (
        f'{_PAST_FIRST_BLOCK}{{"src":"10.0.0.1","dst":"1.2.3","hops":[]}}\n{_PAST_FIRST_BLOCK}'
    ).encode() + b"\xff\n",
    "bad-byte-before-bad-json": f"{_GOOD}\n".encode() + b'{"src":"\xff"}\n{broken\n',
    "crlf-bad-byte": f"{_GOOD}\r\n{_OTHER}\r\n".encode() + b'{"src":"\xff"}\r\n',
    "lone-cr-bad-byte": f"{_GOOD}\r{_OTHER}\r".encode() + b'{"src":"\xff"}\r',
    "cr-then-lf-bad-byte": f"{_GOOD}\r{_OTHER}\n".encode() + b'{"src":"\xff"}\n',
    "lone-cr-bad-json-before-bad-byte": f"{_GOOD}\r{{broken\r".encode() + b'{"src":"\xff"}\r',
    "bom-bad-byte-on-line-1": b'\xef\xbb\xbf{"src":"\xff"}\n' + f"{_GOOD}\n".encode(),
}


@pytest.mark.parametrize("content", TRACE_FILES.values(), ids=TRACE_FILES.keys())
def test_parse_file_matches_per_line_parser_on_handmade_files(tmp_path, content):
    path = tmp_path / "t.jsonl"
    path.write_bytes(content)
    assert _file_outcome(parse_trace_file, path) == _file_outcome(parse_trace_file_per_line, path)


@pytest.mark.parametrize(
    "name, line, fault",
    [
        ("lone-cr-bad-byte", 3, "not valid UTF-8"),
        ("cr-then-lf-bad-byte", 3, "not valid UTF-8"),
        ("lone-cr-bad-json-before-bad-byte", 2, "invalid JSON"),
    ],
)
def test_a_bad_byte_is_on_the_line_a_text_read_counts(tmp_path, name, line, fault):
    # Lines end at \r\n, \r and \n, for a bad byte as for bad content.
    path = tmp_path / "t.jsonl"
    path.write_bytes(TRACE_FILES[name])
    with pytest.raises(ParseError) as excinfo:
        parse_trace_file(path)
    assert (excinfo.value.line, excinfo.value.reason.startswith(fault)) == (line, True)


_ADDRESS_LINE = '{{"src":"{}","dst":"{}","hops":[{}]}}'
# Lines that a file is built from: clean ones, some bringing new
# addresses, and one of each way a line can be refused.
_GOOD_LINES = [
    _GOOD,
    _OTHER,
    _ADDRESS_LINE.format("10.0.0.1", "10.9.0.2", '"10.3.0.1","10.1.0.1","*"'),
    '{"hops":["*","*"],"dst":"10.9.0.3","src":"10.0.0.3"}',
]
_BAD_LINES = [
    _ADDRESS_LINE.format("10.0.0.1", "10.9.0.1", '"10.1.0.1","10.1.0.01"'),
    _ADDRESS_LINE.format("10.0.0.1", "1.2.3", ""),
    _ADDRESS_LINE.format("10.0.0.1", "10.9.0.1", '"*",42'),
    _ADDRESS_LINE.format("*", "10.9.0.1", ""),
    _ADDRESS_LINE.format("10.0.0.1", "10.9.0.1", '["10.1.0.1"]'),
    "{broken",
    "",
    " \t",
    f'{{"src":"10.0.0.1","dst":"10.9.0.1","hops":[],"x":{"[" * 501}{"]" * 501}}}',
]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.sampled_from(_GOOD_LINES + _BAD_LINES), max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_parse_file_matches_per_line_parser_on_mixed_lines(tmp_path, lines, newline):
    path = tmp_path / "t.jsonl"
    path.write_bytes(newline.join(lines).encode())
    assert _file_outcome(parse_trace_file, path) == _file_outcome(parse_trace_file_per_line, path)


def test_parse_file_accepts_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(f"\ufeff{_GOOD}\n{_OTHER}\n".encode())
    plain = tmp_path / "plain.jsonl"
    plain.write_bytes(f"{_GOOD}\n{_OTHER}\n".encode())
    assert parse_trace_file(path) == parse_trace_file(plain)
    # Only the first one: a second one opens a line that is no JSON.
    path.write_bytes(f"\ufeff\ufeff{_GOOD}\n".encode())
    with pytest.raises(ParseError, match=r":1: invalid JSON: Unexpected UTF-8 BOM"):
        parse_trace_file(path)
    # A bad byte is still located by its offset in the file, mark included.
    path.write_bytes(f"\ufeff{_GOOD}\n".encode() + b"\xff\n")
    with pytest.raises(ParseError, match=rf":2: not valid UTF-8 at byte offset {3 + len(_GOOD) + 1} "):
        parse_trace_file(path)


# Line ends, characters that end a line elsewhere but not here, a byte
# order mark, a two-byte character, and a line longer than a block read.
_TEXT_PIECES = [
    "a", "b c", "\r", "\n", "\r\n", "\u2028", "\x85", "\x0c", "\x0b", "\x1c", "\ufeff", "\u00e9", "z" * 70_000
]


def _assert_read_as_text(path, data):
    """``read_lines`` of ``data`` yields what a ``utf-8-sig`` text read with
    untranslated line ends yields. With a bad byte in it, it yields the
    lines before the byte's line, lines ending at ``\\r\\n``, ``\\r`` or
    ``\\n``, then raises the error that the original ``not_utf8`` words."""
    path.write_bytes(data)
    lines = []
    try:
        for line in read_lines(path):
            lines.append(line)
    except ParseError as exc:
        expected = not_utf8(path)
        assert (str(exc), exc.line) == (str(expected), expected.line)
        start = int(expected.reason.split()[6])  # the bad byte's offset
        path.write_bytes(b"".join(data[: start + 1].splitlines(True)[:-1]))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        assert lines == list(fh)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pieces=st.lists(st.sampled_from(_TEXT_PIECES), max_size=20),
    mark=st.booleans(),
    bad_at=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_read_lines_is_a_text_read(tmp_path, pieces, mark, bad_at):
    data = ("\ufeff" * mark + "".join(pieces)).encode()
    if bad_at is not None:
        bad_at %= len(data) + 1
        data = data[:bad_at] + b"\xff" + data[bad_at:]
    _assert_read_as_text(tmp_path / "t.txt", data)


@pytest.mark.parametrize("bad_at", [None, 0, 1, 3, 70_000, 150_001, 299_999, -1])
def test_read_lines_is_a_text_read_over_many_blocks(tmp_path, bad_at):
    # About 300 KB of lines of mixed length and ends, read in blocks of
    # about 64 KiB, with one bad byte in the first, a middle or the last.
    rng = random.Random(7)
    ends = ["\n", "\r\n", "\r", "\n", "\u2028\n"]
    text = "\ufeff" + "".join("x\u00e9" * rng.randrange(60) + rng.choice(ends) for _ in range(4000))
    data = text.encode()
    if bad_at is not None:
        data = data[:bad_at] + b"\xff" + data[bad_at:] if bad_at >= 0 else data + b"\xff"
    assert len(data) > 250_000
    _assert_read_as_text(tmp_path / "t.txt", data)


def outcome_from_pipe(read, content, name):
    """(result, None) of ``read`` on a ``/dev/fd`` path naming a pipe fed
    ``content``, or (None, (message, line)) of its ``ParseError``, with the
    pipe's path in the message replaced by ``name``. ``content`` fits in
    the pipe's buffer, so the feed ends even when ``read`` stops early."""
    read_end, write_end = os.pipe()
    pipe = f"/dev/fd/{read_end}"

    def feed() -> None:
        with os.fdopen(write_end, "wb") as fh:
            fh.write(content)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(pipe), None
    except ParseError as exc:
        return None, (str(exc).replace(pipe, str(name)), exc.line)
    finally:
        writer.join()
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("name", ["clean", "bad-json-late", "bad-address-late", "bad-byte-late"])
def test_parse_file_reads_a_pipe_once(tmp_path, name):
    """A pipe cannot be read a second time, so a malformed file that comes
    from one is still reported at its line, a bad byte at its offset too,
    and a clean one read whole."""
    content = {
        "clean": f"{_PAST_FIRST_BLOCK}{_OTHER}\n".encode(),
        "bad-json-late": f"{_PAST_FIRST_BLOCK}{{broken\n{_GOOD}\n".encode(),
        "bad-address-late": f'{_PAST_FIRST_BLOCK}{{"src":"10.0.0.1","dst":"1.2.3","hops":[]}}\n'.encode(),
        "bad-byte-late": f"{_PAST_FIRST_BLOCK}{_GOOD}\n".encode() + b'{"src":"\xff"}\n' + _GOOD.encode(),
    }[name]
    regular = tmp_path / "t.jsonl"
    regular.write_bytes(content)
    outcome = outcome_from_pipe(parse_trace_file, content, regular)
    assert outcome == _file_outcome(parse_trace_file, regular) == _file_outcome(parse_trace_file_per_line, regular)
    assert (outcome[1] is None) == (name == "clean")
