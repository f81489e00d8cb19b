"""Traceroute record parsing and per-endpoint-pair grouping.

The interchange format is JSON lines: one object per line with keys
``src`` (IPv4 string), ``dst`` (IPv4 string) and ``hops`` (array of IPv4
strings, ``"*"`` for an unresponsive hop). Unknown keys are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from ipaddress import AddressValueError, IPv4Address
from pathlib import Path
from socket import AF_INET, inet_pton
from typing import Iterable, Sequence

from .errors import InvalidAddress, ParseError, not_utf8

UNRESPONSIVE = "*"

Pair = tuple[str, str]
HopSequence = tuple[str, ...]


@dataclass(frozen=True)
class TraceRecord:
    """One traceroute output: endpoints plus the ordered hop list as measured."""

    src: str
    dst: str
    hops: HopSequence


@dataclass(frozen=True)
class RouteSet:
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
            raise InvalidAddress(f"field {field!r}: {exc}", path=path, line=line) from exc
        valid.add(value)
    return value


def parse_trace_line(line: str, *, path: str | None = None, line_number: int | None = None) -> TraceRecord:
    """Parse one JSONL trace record, keeping hop order and unresponsive markers."""
    return _parse_line(line, set(), path, line_number)


def _parse_line(line: str, valid: set[str], path: str | None, line_number: int | None) -> TraceRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=line_number) from exc
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
    """Parse a JSONL trace file; blank lines are skipped. Each distinct
    address string is validated once per call."""
    records = []
    valid: set[str] = set()
    name = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                records.append(_parse_line(line, valid, name, number))
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return records


def _strip_markers(hops: Sequence[str]) -> HopSequence:
    return tuple(h for h in hops if h != UNRESPONSIVE)


def group_by_pair(records: Iterable[TraceRecord]) -> dict[Pair, RouteSet]:
    """Group records by (src, dst) and deduplicate their IP-level routes.

    The result is keyed in lexicographic pair order and each route set holds
    its distinct marker-stripped hop sequences in lexicographic order, so
    grouping is insensitive to input order.
    """
    routes: dict[Pair, set[HopSequence]] = {}
    for record in records:
        pair = (record.src, record.dst)
        routes.setdefault(pair, set()).add(_strip_markers(record.hops))
    return {
        pair: RouteSet(pair=pair, ip_routes=tuple(sorted(routes[pair])))
        for pair in sorted(routes)
    }
