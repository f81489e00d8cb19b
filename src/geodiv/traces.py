"""Traceroute record parsing and per-endpoint-pair grouping.

The interchange format is JSON lines: one object per line with keys
``src`` (IPv4 string), ``dst`` (IPv4 string) and ``hops`` (array of IPv4
strings, ``"*"`` for an unresponsive hop). Unknown keys are ignored. A
record may nest arrays and objects at most 500 levels deep.
"""

from __future__ import annotations

import json
import re
from _socket import AF_INET, inet_pton  # socket re-exports these, at several times the import cost
from ipaddress import AddressValueError, IPv4Address
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ParseError, invalid_json, not_utf8

UNRESPONSIVE = "*"

# Well below the recursion limit, so that whether a line decodes does not
# depend on how deep the caller's stack is (it is deeper in a forked reader).
_MAX_NESTING = 500
# A JSON string (to the end of the line if unterminated), or a bracket.
_STRING_OR_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]')

Pair = tuple[str, str]
HopSequence = tuple[str, ...]


class TraceRecord(NamedTuple):
    """One traceroute output: endpoints plus the ordered hop list as measured."""

    src: str
    dst: str
    hops: HopSequence


class RouteSet:
    """Distinct IP-level routes observed for one (src, dst) pair.

    Unresponsive markers are stripped before deduplication, so two
    measurements differing only in where responses were lost count as the
    same IP-level route. A route set can be weakly referenced, which a
    tuple cannot.
    """

    __slots__ = ("pair", "ip_routes", "__weakref__")

    def __init__(self, pair: Pair, ip_routes: tuple[HopSequence, ...]) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "ip_routes", ip_routes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and (self.pair, self.ip_routes) == (other.pair, other.ip_routes)

    def __hash__(self) -> int:
        return hash((self.pair, self.ip_routes))

    def __repr__(self) -> str:
        return f"RouteSet(pair={self.pair!r}, ip_routes={self.ip_routes!r})"

    def __reduce__(self) -> tuple[type[RouteSet], tuple[Pair, tuple[HopSequence, ...]]]:
        return RouteSet, (self.pair, self.ip_routes)


def parse_ipv4(text: str) -> int:
    """Integer value of an IPv4 address, or ``AddressValueError``.

    Accepts exactly what ``ipaddress.IPv4Address`` accepts and returns the
    same int. The C library's ``inet_pton`` accepts only the strict
    dotted-quad form (four decimal octets of at most three digits, each at
    most 255, no leading zeros), which ``IPv4Address`` accepts too; the
    rest goes to ``IPv4Address``, which raises its own message (or
    converts an ``IPv4Address`` or int argument).
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, text), "big")
    except (OSError, TypeError, ValueError):
        return int(IPv4Address(text))


def _check_address(
    value: object, field: str, valid: set[str], path: str | None, line: int | None
) -> str:
    """``value`` if it is an IPv4 address string; ``valid`` holds the strings
    already accepted, so each distinct string is parsed once."""
    if not isinstance(value, str):
        raise ParseError(f"field {field!r} must be a string", path=path, line=line)
    if value not in valid:
        try:
            parse_ipv4(value)
        except AddressValueError as exc:
            raise ParseError(f"field {field!r}: {exc}", path=path, line=line) from exc
        valid.add(value)
    return value


def _too_deep(line: str) -> bool:
    """Whether ``line`` opens more than ``_MAX_NESTING`` arrays and objects
    at once outside strings, counted without recursion. The decoder nests
    no deeper than this count on any line, valid or not, and only a line
    longer than the bound, with more brackets than it, can exceed it."""
    if line.count("[") + line.count("{") <= _MAX_NESTING:
        return False
    depth = 0
    for token in _STRING_OR_BRACKET.findall(line):
        if token in ("[", "{"):
            depth += 1
            if depth > _MAX_NESTING:
                return True
        elif token in ("]", "}"):
            depth -= 1
    return False


def parse_trace_line(
    line: str, *, path: str | None = None, line_number: int | None = None, valid: set[str] | None = None
) -> TraceRecord:
    """Parse one JSONL trace record, keeping hop order and unresponsive
    markers. ``valid`` holds address strings already accepted, which are
    not parsed again, and gains the ones this record adds."""
    valid = set() if valid is None else valid
    if len(line) > _MAX_NESTING and _too_deep(line):
        raise ParseError("invalid JSON: nested too deeply", path=path, line=line_number)
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise invalid_json(exc, path, line_number) from exc
    if not isinstance(obj, dict):
        raise ParseError("trace record must be a JSON object", path=path, line=line_number)
    for key in ("src", "dst", "hops"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}", path=path, line=line_number)
    src = _check_address(obj["src"], "src", valid, path, line_number)
    dst = _check_address(obj["dst"], "dst", valid, path, line_number)
    raw_hops = obj["hops"]
    if not isinstance(raw_hops, list):
        raise ParseError("field 'hops' must be an array", path=path, line=line_number)
    for i, hop in enumerate(raw_hops):
        if isinstance(hop, str) and (hop in valid or hop == UNRESPONSIVE):
            continue
        _check_address(hop, f"hops[{i}]", valid, path, line_number)
    return TraceRecord(src=src, dst=dst, hops=tuple(raw_hops))


def parse_trace_file(path: str | Path) -> list[TraceRecord]:
    """Parse a JSONL trace file; blank lines are skipped and one leading
    byte order mark is allowed. One pass, a pipe's too, decodes each line
    once and keeps its record in place when ``_clean_record`` accepts it,
    so each distinct address string is validated once per call. Any other
    line goes to ``parse_trace_line``, which words and locates its error.
    """
    records = []
    known = {UNRESPONSIVE}  # the addresses accepted so far, and the marker
    name = str(path)
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for number, line in enumerate(fh, start=1):
                record = None
                if not (len(line) > _MAX_NESTING and _too_deep(line)):
                    try:
                        record = _clean_record(json.loads(line), known)
                    except (ValueError, RecursionError):
                        if not line.strip():
                            continue
                records.append(record or parse_trace_line(line, path=name, line_number=number))
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return records


def _clean_record(obj: object, known: set[object]) -> TraceRecord | None:
    """The record of a decoded object with ``src`` and ``dst`` address
    strings and a ``hops`` array of address strings and markers, else None.
    ``known`` holds the addresses accepted so far and the marker, and gains
    the new ones that parse."""
    try:
        src, dst, hops = obj["src"], obj["dst"], obj["hops"]
        if type(src) is not str or type(dst) is not str or type(hops) is not list or UNRESPONSIVE in (src, dst):
            return None
        if not (src in known and dst in known and known.issuperset(hops)):
            for address in (src, dst, *hops):
                if address not in known:
                    if type(address) is not str:
                        return None
                    parse_ipv4(address)
                    known.add(address)
    except (LookupError, TypeError, ValueError):  # not an object, or a key, hop or address amiss
        return None
    return TraceRecord(src, dst, tuple(hops))


def group_by_pair(records: Iterable[TraceRecord]) -> dict[Pair, RouteSet]:
    """Group records by (src, dst) and deduplicate their IP-level routes.

    The result is keyed in lexicographic pair order and each route set holds
    its distinct marker-stripped hop sequences in lexicographic order, so
    grouping is insensitive to input order.
    """
    routes: dict[Pair, set[HopSequence]] = {}
    for record in records:
        pair = (record.src, record.dst)
        routes.setdefault(pair, set()).add(tuple(h for h in record.hops if h != UNRESPONSIVE))
    return {
        pair: RouteSet(pair=pair, ip_routes=tuple(sorted(routes[pair])))
        for pair in sorted(routes)
    }
