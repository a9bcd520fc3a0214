"""Hostile input: :func:`parse` returns a ``Document`` or raises an
:class:`XMLError`, in bounded time and memory, and opens nothing."""

from __future__ import annotations

import tracemalloc
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree.errors import XMLEntityError, XMLError, XMLSyntaxError
from repro.xmltree.parser import Document, parse

from .test_properties import elements

#: One 2,000-character internal entity referenced 20,000 times: a 62 KB
#: document that would expand to 40,000,000 characters of text.
BLOWUP = (
    '<!DOCTYPE a [<!ENTITY e "' + "x" * 2000 + '">]><a>'
    + "&e;" * 20000 + "</a>"
)
#: Ten levels of ten references each: 10**9 copies of "lol".
BILLION_LAUGHS = (
    '<!DOCTYPE a [<!ENTITY l0 "lol">'
    + "".join(
        f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, 10)
    )
    + "]><a>&l9;</a>"
)
#: One 290-character entity referenced 170,000 times: a 510 KB document
#: within expat's 100x amplification ratio that expands to 49,300,000
#: characters, in text and in one attribute value.
_WIDE_ENTITY = '<!DOCTYPE a [<!ENTITY e "' + "y" * 290 + '">]>'
WIDE_TEXT = _WIDE_ENTITY + "<a>" + "&e;" * 170000 + "</a>"
WIDE_ATTRIBUTE = _WIDE_ENTITY + '<a v="' + "&e;" * 170000 + '"/>'
#: The same references as an ``<!ATTLIST>`` default, which expat expands
#: inside the DTD, before the DOCTYPE ends.
WIDE_DEFAULT = (
    '<!DOCTYPE a [<!ENTITY e "' + "y" * 290 + '">'
    '<!ATTLIST a v CDATA "' + "&e;" * 170000 + '">]><a/>'
)

_PROLOGS = (
    "",
    '<?xml version="1.0"?>\n',
    '<!DOCTYPE r [<!ENTITY e "v&amp;w"><!ENTITY m "<i>m</i>">]>',
)
_FRAGMENTS = ("&e;", "&m;", "<![CDATA[a<b]]>", "<!-- c -->", "<?p d?>", "\n ")
_INSERTS = (
    ["<", "&", "]]>", "\ud800", "\udfff"]
    + [chr(c) for c in range(32) if chr(c) not in "\t\n\r"]
)


@st.composite
def documents(draw):
    """Well-formed documents with a prolog, entities and markup sections."""
    prolog = draw(st.sampled_from(_PROLOGS))
    parts = draw(st.lists(
        st.one_of(elements(), st.sampled_from(_FRAGMENTS)), max_size=4
    ))
    if "ENTITY" not in prolog:
        parts = [part for part in parts if part not in ("&e;", "&m;")]
    return f"{prolog}<r>{''.join(parts)}</r>"


@st.composite
def mutated(draw):
    """A document after one to three byte flips, truncations or inserts."""
    text = draw(documents())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "insert")))
        at = draw(st.integers(0, len(text)))
        if kind == "flip":
            # Invalid UTF-8 arrives as lone surrogates (surrogateescape).
            data = bytearray(text.encode("utf-8", "surrogatepass"))
            if data:
                data[at % len(data)] ^= 1 << draw(st.integers(0, 7))
            text = bytes(data).decode("utf-8", "surrogateescape")
        elif kind == "truncate":
            text = text[:at]
        else:
            text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
    return text


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(mutated())
def test_mutated_documents_parse_or_raise_xml_error(text):
    try:
        document = parse(text)
    except XMLError:
        return
    assert isinstance(document, Document)


@pytest.mark.parametrize("text, error", [
    ('<a v="' + "x" * 1_000_000 + '"/>', None),
    ("<a>" * 5000 + "</a>" * 5000, XMLSyntaxError),
    (BLOWUP, XMLEntityError),
    (BILLION_LAUGHS, XMLEntityError),
    (WIDE_TEXT, XMLEntityError),
    (WIDE_ATTRIBUTE, XMLEntityError),
    (WIDE_DEFAULT, XMLEntityError),
], ids=["1mb-attribute", "5000-deep", "entity-blowup", "billion-laughs",
        "wide-entity-text", "wide-entity-attribute", "wide-attlist-default"])
def test_large_inputs_stay_bounded(text, error):
    tracemalloc.start()
    try:
        if error is None:
            assert len(parse(text).root.attributes["v"]) == 1_000_000
        else:
            with pytest.raises(error):
                parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_external_entity_is_never_opened(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError(f"parse opened {args!r}")

    monkeypatch.setattr("builtins.open", refuse)
    secret = tmp_path / "secret.txt"
    for system_id in ("file:///etc/passwd", secret.as_uri()):
        with pytest.raises(XMLEntityError, match="never loaded"):
            parse(
                f'<!DOCTYPE a [<!ENTITY e SYSTEM "{system_id}">]><a>&e;</a>'
            )
