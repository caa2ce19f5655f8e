"""Bundled knot presentations.

Three-bridge presentations for the non-rational knots used by the golden
tests and the selftest command.  All generators are meridians (each relator
is of conjugation shape), which is what the t-grading of the twisted
machinery assumes.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .groupcalc import InputError, Presentation, parse_presentation

BUNDLED = ("8_5", "10_145", "10_159")


def presentation(name: str) -> Presentation:
    """Load a bundled presentation by name, e.g. '8_5'."""
    clean = name.removesuffix(".pres")
    if clean not in BUNDLED:
        raise KeyError(f"no bundled presentation {name!r}; have {BUNDLED}")
    text = (resources.files("metatap") / "data" / f"{clean}.pres").read_text()
    return parse_presentation(text, name=clean)


def load_presentation(spec: str) -> Presentation:
    """A presentation file, or else a bundled name (with or without .pres).

    Raises InputError when `spec` is neither or the file cannot be read.
    """
    path = Path(spec)
    try:
        text = path.read_text() if path.exists() else None
    except (OSError, ValueError) as e:  # a directory, a name too long, not UTF-8
        raise InputError(f"cannot read presentation file {spec}: {e}") from e
    if text is not None:
        return parse_presentation(text, name=path.stem)
    clean = spec.removesuffix(".pres")
    if clean in BUNDLED:
        return presentation(clean)
    raise InputError(f"presentation file not found: {spec}")
