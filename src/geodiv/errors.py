"""Exception types shared across the toolkit.

``ParseError`` (a malformed input file) and ``InvalidConfig`` (an
out-of-range setting) are bad input, which the CLI reports and exits 1
on. A bad argument to a library call is a plain ``ValueError``.
"""

from __future__ import annotations

import json
from pathlib import Path


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


def not_utf8(path: str | Path) -> ParseError:
    """The error for a file that is not UTF-8, at its first bad byte. A
    text read decodes in blocks, so the file is read again as bytes."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return ParseError("not valid UTF-8", path=str(path))  # changed since
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 at byte offset {exc.start} (0x{data[exc.start]:02x}: {exc.reason})"
        return ParseError(reason, path=str(path), line=data.count(b"\n", 0, exc.start) + 1)


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
