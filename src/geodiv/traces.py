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

from .errors import ParseError, invalid_json, read_lines

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


class RouteSet(NamedTuple):
    """Distinct IP-level routes observed for one (src, dst) pair.

    Unresponsive markers are stripped before deduplication, so two
    measurements differing only in where responses were lost count as the
    same IP-level route.
    """

    pair: Pair
    ip_routes: tuple[HopSequence, ...]


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


def _check_address(value: object, field: str, path: str | None, line: int | None) -> str:
    """``value`` if it is an IPv4 address string; else raises the located
    error of the field named ``field``."""
    if type(value) is str:
        try:
            parse_ipv4(value)
            return value
        except AddressValueError as exc:
            reason = f": {exc}"
    else:
        reason = " must be a string"
    raise ParseError(f"field {field!r}{reason}", path=path, line=line)


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


def parse_trace_file(path: str | Path) -> list[TraceRecord]:
    """Parse a JSONL trace file in one pass, a pipe's too, skipping blank
    lines. Each line is checked by ``_record``, each distinct address is
    parsed once, and the first faulty line raises its ``ParseError``."""
    records = []
    known = {UNRESPONSIVE}  # the addresses accepted so far, and the marker
    name = str(path)
    for number, line in enumerate(read_lines(path), start=1):
        if len(line) > _MAX_NESTING and _too_deep(line):
            raise ParseError("invalid JSON: nested too deeply", path=name, line=number)
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            if line.isspace():
                continue
            raise invalid_json(exc, name, number) from exc
        records.append(_record(obj, known, name, number))
    return records


def _record(obj: object, known: set[str], path: str | None, line: int | None) -> TraceRecord:
    """The record of a decoded trace line, or the ``ParseError`` of its
    first fault at ``path`` and ``line``. ``known`` holds the marker and
    the addresses accepted so far, and gains each new one."""
    try:
        src, dst, hops = obj["src"], obj["dst"], obj["hops"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}", path=path, line=line) from None
    except TypeError:  # not an object: an array, a string, a number, a boolean or null
        raise ParseError("trace record must be a JSON object", path=path, line=line) from None
    if type(src) is not str or src not in known or src == UNRESPONSIVE:
        known.add(_check_address(src, "src", path, line))
    if type(dst) is not str or dst not in known or dst == UNRESPONSIVE:
        known.add(_check_address(dst, "dst", path, line))
    if type(hops) is not list:
        raise ParseError("field 'hops' must be an array", path=path, line=line)
    try:
        clean = known.issuperset(hops)
    except TypeError:  # an array or object hop
        clean = False
    if not clean:
        for i, hop in enumerate(hops):
            if type(hop) is not str:
                _check_address(hop, f"hops[{i}]", path, line)
            elif hop not in known:
                try:  # one call per new hop: ``_check_address`` only words a bad one
                    parse_ipv4(hop)
                except AddressValueError:
                    _check_address(hop, f"hops[{i}]", path, line)
                known.add(hop)
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
