"""Exception types shared across the toolkit."""

from __future__ import annotations

from pathlib import Path


class GeodivError(Exception):
    """Base class for all errors raised by this package."""


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


class InvalidAddress(ParseError):
    """A field that should hold an IPv4 address does not parse as one."""


class DuplicateCidr(GeodivError):
    """The same CIDR prefix appears twice in a geolocation snapshot."""


class EmptyPath(GeodivError):
    """A path with zero nodes was passed where at least one is required."""


class EmptySet(GeodivError):
    """An empty route set was passed where at least one member is required."""


class InvalidGeometry(GeodivError):
    """Route-length geometry is inconsistent (longest route shorter than the endpoint gap)."""


class InvalidConfig(GeodivError, ValueError):
    """A scoring setting is out of range; ``field`` names the setting."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")


class InvalidCounts(GeodivError):
    """Route/cluster counts violate their mutual constraints."""


class EmptyInput(GeodivError):
    """An empty value sequence was passed to a distribution computation."""
