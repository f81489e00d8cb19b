"""Exception types shared across the toolkit, and ``read_lines``, the one
reader of input text, which locates a byte that is not UTF-8.

``ParseError`` (a malformed input file) and ``InvalidConfig`` (an
out-of-range setting) are bad input, which the CLI reports and exits 1
on. A bad argument to a library call is a plain ``ValueError``.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterator


class GeodivError(Exception):
    """Base class of the two bad-input errors below."""


class ParseError(GeodivError):
    """Malformed input file content.

    Carries optional source context so CLI error messages can point at the
    offending line.
    """

    def __init__(self, reason: str, *, path: str | None = None, line: int | None = None):
        self.reason = reason
        self.path = path
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        prefix = ""
        if self.path is not None:
            prefix += f"{self.path}:"
        if self.line is not None:
            prefix += f"{self.line}:"
        if prefix:
            return f"{prefix} {self.reason}"
        return self.reason


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines that ``open(path, newline="", encoding="utf-8-sig")`` yields,
    from one read of the file, a pipe's too. A bad byte raises its located
    error after the lines before its own, with lines ended at ``\\r\\n``,
    ``\\r`` or ``\\n`` and the offset counted from the start of the file, a
    byte order mark included."""
    return chain.from_iterable(_blocks(path))


def _blocks(path: str | Path) -> Iterator[list[str]]:
    """The lines of ``read_lines``, a list per block of whole lines."""
    with open(path, "rb") as fh:
        raws = [fh.readline()]
        offset = 3 if raws[0].startswith(b"\xef\xbb\xbf") else 0  # the file's bytes before ``block``
        raws[0] = raws[0][offset:]
        number = 1  # the line that ``block`` starts
        while block := b"".join(raws):
            try:
                block.decode()
            except UnicodeDecodeError as exc:
                good = block[: max(block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)) + 1]
                lines = list(map(bytes.decode, good.splitlines(True)))
                yield lines
                reason = f"{offset + exc.start} ({block[exc.start]:#04x}: {exc.reason})"
                line = number + len(lines)
                raise ParseError(f"not valid UTF-8 at byte offset {reason}", path=str(path), line=line) from None
            # Bytes split at \r\n, \r and \n only, as a text read does.
            lines = list(map(bytes.decode, block.splitlines(True) if b"\r" in block else raws))
            yield lines
            offset += len(block)
            number += len(lines)
            raws = fh.readlines(1 << 16)  # whole lines, about 64 KiB of them


def invalid_json(exc: ValueError | RecursionError, path: str | None, line: int | None) -> ParseError:
    """The error for text that ``json`` cannot load: malformed, nested
    deeper than the decoder recurses, or holding an integer with more
    digits than Python converts."""
    if isinstance(exc, json.JSONDecodeError):
        return ParseError(f"invalid JSON: {exc.msg}", path=path, line=line)
    if isinstance(exc, RecursionError):
        return ParseError("invalid JSON: nested too deeply", path=path, line=line)
    return ParseError(f"invalid JSON: {str(exc).partition(';')[0]}", path=path, line=line)


class InvalidConfig(GeodivError, ValueError):
    """A scoring setting is out of range; ``field`` names the setting."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")
