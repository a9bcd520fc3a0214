"""XML character data escaping for the serializer.

Reading goes through expat (:mod:`repro.xmltree.parser`), which resolves
every entity and character reference; the functions here only write:
they escape text and attribute values so that parsing the output gives
the input back.
"""

from __future__ import annotations

_ESCAPE_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ESCAPE_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(text: str) -> str:
    """Escape character data for use as XML element content."""
    return "".join(_ESCAPE_TEXT.get(ch, ch) for ch in text)


def escape_attribute(text: str) -> str:
    """Escape character data for use inside a double-quoted attribute."""
    return "".join(_ESCAPE_ATTR.get(ch, ch) for ch in text)
