"""Edge-case tests for the XML substrate (escaping, references, limits)."""

from __future__ import annotations

import re

import pytest
from xml.parsers.expat import errors

from repro.xmltree.escape import escape_attribute, escape_text
from repro.xmltree.errors import XMLEntityError, XMLSyntaxError
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize_document


def text_of(content: str) -> str:
    """The text ``parse`` reads from ``content`` inside one element."""
    return parse(f"<a>{content}</a>").root.text()


class TestEscaping:
    """Reference resolution (unescaping) as ``parse`` does it, and the
    serializer's escaping."""

    def test_all_predefined_entities(self):
        predefined = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
        for name, char in predefined.items():
            assert text_of(f"&{name};") == char
            assert parse(f'<a v="&{name};"/>').root.attributes["v"] == char

    def test_text_escape_leaves_quotes(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_attribute_escape_handles_double_quotes(self):
        assert escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_unescape_without_ampersand_fast_path(self):
        assert text_of("plain text") == "plain text"

    def test_unterminated_reference(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ) as exc:
            text_of("broken &amp")
        assert not isinstance(exc.value, XMLEntityError)

    def test_custom_entities(self):
        source = '<!DOCTYPE a [<!ENTITY me "value">]><a>&me;</a>'
        assert parse(source).root.text() == "value"


class TestCharacterReferences:
    def test_decimal_and_hex(self):
        assert text_of("&#9731;") == "☃"
        assert text_of("&#x2603;") == "☃"

    def test_uppercase_hex_marker(self):
        # XML 1.0 spells the hexadecimal marker "x" only (production [66]).
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            text_of("&#X41;")

    @pytest.mark.parametrize("body", ["#", "#x", "#xGG", "#12a"])
    def test_malformed_references(self, body):
        # Not a CharRef token at all: a syntax error, located at the
        # first character that cannot continue the reference.
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ) as exc:
            text_of(f"&{body};")
        assert exc.value.line == 1 and exc.value.column > 4

    @pytest.mark.parametrize("body", ["#0", "#1114112", "#x110000"])
    def test_out_of_range_codepoints(self, body):
        with pytest.raises(
            XMLEntityError, match=re.escape(errors.XML_ERROR_BAD_CHAR_REF)
        ) as exc:
            text_of(f"&{body};")
        assert (exc.value.line, exc.value.column) == (1, 4)

    def test_max_codepoint_accepted(self):
        assert text_of("&#x10FFFF;") == "\U0010ffff"


class TestLexerCorners:
    def test_entity_inside_attribute(self):
        root = parse('<a t="&#65;&amp;B"/>').root
        assert root.attributes == {"t": "A&B"}

    def test_crlf_line_counting(self):
        with pytest.raises(XMLSyntaxError) as exc:
            parse("<a>\r\n<b x=1/></a>")
        assert exc.value.line == 2

    def test_empty_input(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_NO_ELEMENTS)
        ):
            parse("")

    def test_whitespace_only_document_rejected_by_parser(self):
        with pytest.raises(XMLSyntaxError):
            parse("\n\t  ")

    def test_tag_name_starting_with_digit_rejected(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            parse("<1bad/>")

    def test_nested_cdata_like_text(self):
        document = parse("<a><![CDATA[ ]]&gt; not a close ]]></a>")
        assert "]]&gt;" in document.root.text()


class TestSerializerCorners:
    def test_deeply_nested_pretty_output_indents(self):
        xml = "<a><b><c><d>x</d></c></b></a>"
        output = serialize_document(parse(xml))
        assert "      <d>x</d>" in output

    def test_attribute_with_both_quote_kinds(self):
        document = parse("<a t='he said &quot;hi&quot;'/>")
        reparsed = parse(serialize_document(document))
        assert reparsed.root.attributes["t"] == 'he said "hi"'

    def test_unicode_content_roundtrip(self):
        document = parse("<a>café ☃ 日本語</a>")
        reparsed = parse(serialize_document(document))
        assert reparsed.root.text() == "café ☃ 日本語"

    def test_mixed_content_preserved_in_roundtrip(self):
        document = parse("<a>one<b/>two</a>")
        reparsed = parse(serialize_document(document))
        assert reparsed.root.text().split() == ["one", "two"]
