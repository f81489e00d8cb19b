"""The public surface: README's API list is ``geodiv.__all__``, and the
package defines three exception types."""

import re
from pathlib import Path

import geodiv
from geodiv import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_readme_lists_exactly_the_exported_names():
    assert _readme_api_names() == geodiv.__all__
    assert all(hasattr(geodiv, name) for name in geodiv.__all__)


def test_three_error_types():
    defined = sorted(
        name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)
    )
    assert defined == ["GeodivError", "InvalidConfig", "ParseError"]
    assert issubclass(errors.ParseError, errors.GeodivError)
    assert issubclass(errors.InvalidConfig, errors.GeodivError) and issubclass(errors.InvalidConfig, ValueError)
