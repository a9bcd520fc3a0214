"""Lexical-level behaviour of :func:`parse`: tags, attributes, references,
markup sections and error positions."""

from __future__ import annotations

import re

import pytest
from xml.parsers.expat import errors

from repro.xmltree.errors import XMLEntityError, XMLSyntaxError
from repro.xmltree.parser import Element, Text, parse


class TestBasicTokens:
    def test_empty_element(self):
        root = parse("<a/>").root
        assert root.name == "a"
        assert root.attributes == {} and root.children == []

    def test_start_and_end_tags(self):
        root = parse("<a></a>").root
        assert root.name == "a"
        assert root.children == []

    def test_text_content(self):
        root = parse("<a>hello world</a>").root
        assert root.children == [Text("hello world")]

    def test_nested_elements(self):
        root = parse("<a><b/><c>x</c></a>").root
        assert root == Element("a", {}, [
            Element("b"), Element("c", {}, [Text("x")]),
        ])

    def test_names_with_punctuation(self):
        root = parse("<r><directed_by/><first-name/><ns:tag/></r>").root
        assert [e.name for e in root.child_elements()] == [
            "directed_by", "first-name", "ns:tag",
        ]

    def test_whitespace_inside_tags(self):
        root = parse('<a  x="1"\n  y="2"  ></a>').root
        assert list(root.attributes.items()) == [("x", "1"), ("y", "2")]


class TestAttributes:
    def test_attribute_order_preserved(self):
        root = parse('<a z="1" a="2" m="3"/>').root
        assert list(root.attributes) == ["z", "a", "m"]

    def test_single_and_double_quotes(self):
        root = parse("<a x='one' y=\"two\"/>").root
        assert root.attributes == {"x": "one", "y": "two"}

    def test_attribute_entities_resolved(self):
        root = parse('<a t="a &amp; b"/>').root
        assert root.attributes == {"t": "a & b"}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_DUPLICATE_ATTRIBUTE)
        ):
            parse('<a x="1" x="2"/>')

    def test_unquoted_value_rejected(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            parse("<a x=1/>")

    def test_angle_bracket_in_value_rejected(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            parse('<a x="a<b"/>')

    def test_unterminated_value(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_UNCLOSED_TOKEN)
        ):
            parse('<a x="oops>')


class TestEntities:
    def test_predefined_entities_in_text(self):
        root = parse("<a>&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos;</a>").root
        assert root.children == [Text("<tag> & \"x\" 'y'")]

    def test_numeric_character_references(self):
        assert parse("<a>&#65;&#x42;</a>").root.text() == "AB"

    def test_undefined_entity_raises(self):
        with pytest.raises(
            XMLEntityError, match=re.escape(errors.XML_ERROR_UNDEFINED_ENTITY)
        ):
            parse("<a>&nosuch;</a>")

    def test_internal_dtd_entity(self):
        source = (
            '<!DOCTYPE a [<!ENTITY greet "hello">]>' "<a>&greet; world</a>"
        )
        assert parse(source).root.children == [Text("hello world")]


class TestMarkupSections:
    def test_comment(self):
        assert parse("<a><!-- note --></a>").root.children == []

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            parse("<a><!-- bad -- comment --></a>")

    def test_cdata(self):
        root = parse("<a><![CDATA[<raw> & text]]></a>").root
        assert root.children == [Text("<raw> & text")]

    def test_processing_instruction(self):
        assert parse('<?xml version="1.0"?><a/>').root == Element("a")

    def test_doctype(self):
        # The external subset is named, never read.
        assert parse("<!DOCTYPE play SYSTEM 'play.dtd'><play/>").root.name == "play"

    def test_unterminated_comment(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_UNCLOSED_TOKEN)
        ):
            parse("<a><!-- oops</a>")

    def test_unterminated_cdata(self):
        with pytest.raises(
            XMLSyntaxError,
            match=re.escape(errors.XML_ERROR_UNCLOSED_CDATA_SECTION),
        ):
            parse("<a><![CDATA[oops</a>")


class TestPositions:
    def test_line_and_column_tracking(self):
        assert parse("<a>\n  <b/>\n</a>").root.find("b") is not None
        # The same document with a bad name where <b/> stood: the error
        # points at the offending "1", 1-based.
        with pytest.raises(XMLSyntaxError) as exc:
            parse("<a>\n  <1/>\n</a>")
        assert (exc.value.line, exc.value.column) == (2, 4)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as exc:
            parse("<a>\n<b x=1/></a>")
        assert exc.value.line == 2

    def test_lexer_reusable_token_stream(self):
        # parse keeps no state between calls.
        first = parse("<a>x</a>")
        assert parse("<a>x</a>") == first
        assert first.root.children == [Text("x")]
