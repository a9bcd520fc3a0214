"""Unit tests for the XML document parser."""

from __future__ import annotations

import pytest

from repro.xmltree.errors import XMLError, XMLSyntaxError
from repro.xmltree.parser import MAX_DEPTH, Document, Element, Text, parse


def _nested(levels: int) -> str:
    """``levels`` elements nested one inside the other."""
    return "<a>" * levels + "x" + "</a>" * levels


class TestWellFormedDocuments:
    def test_single_empty_root(self):
        document = parse("<root/>")
        assert isinstance(document, Document)
        assert document.root.name == "root"
        assert document.root.children == []

    def test_nested_structure(self):
        document = parse("<a><b><c/></b><d/></a>")
        root = document.root
        assert [c.name for c in root.child_elements()] == ["b", "d"]
        assert root.find("b").find("c") is not None

    def test_text_content(self):
        document = parse("<a>hello</a>")
        assert document.root.text() == "hello"

    def test_mixed_content_preserved(self):
        document = parse("<a>one<b/>two</a>")
        kinds = [type(c).__name__ for c in document.root.children]
        assert kinds == ["Text", "Element", "Text"]

    def test_whitespace_only_text_dropped(self):
        document = parse("<a>\n  <b/>\n</a>")
        assert all(isinstance(c, Element) for c in document.root.children)

    def test_cdata_becomes_text(self):
        document = parse("<a><![CDATA[1 < 2]]></a>")
        assert document.root.text() == "1 < 2"

    def test_attributes(self):
        document = parse('<movie year="1954" genre="mystery"/>')
        assert document.root.attributes == {"year": "1954", "genre": "mystery"}

    def test_prolog_collected(self):
        document = parse(
            '<?xml version="1.0"?><!DOCTYPE a><!-- c --><a/>'
        )
        assert document.doctype == "a"
        assert document.processing_instructions[0].startswith("xml")

    def test_comments_dropped(self):
        document = parse("<a><!-- hidden --><b/></a>")
        assert [c.name for c in document.root.child_elements()] == ["b"]


class TestMalformedDocuments:
    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError, match="mismatched end tag"):
            parse("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError, match="unexpected end of document"):
            parse("<a><b>")

    def test_multiple_roots(self):
        with pytest.raises(XMLSyntaxError, match="multiple root"):
            parse("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(XMLSyntaxError, match="outside root"):
            parse("stray<a/>")

    def test_empty_document(self):
        with pytest.raises(XMLSyntaxError, match="no root element"):
            parse("   ")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("</a>")

    def test_doctype_after_root(self):
        with pytest.raises(XMLSyntaxError, match="DOCTYPE after root"):
            parse("<a/><!DOCTYPE a>")


class TestNestingDepth:
    def test_cap_depth_still_parses(self):
        assert MAX_DEPTH == 256
        element = parse(_nested(MAX_DEPTH)).root
        depth = 1
        while element.child_elements():
            (element,) = element.child_elements()
            depth += 1
        assert depth == MAX_DEPTH

    def test_past_the_cap_is_a_located_syntax_error(self):
        with pytest.raises(XMLSyntaxError, match="deeper than 256") as info:
            parse(_nested(MAX_DEPTH + 1))
        # The offending start tag: the 257th "<a>" on line 1.
        assert (info.value.line, info.value.column) == (1, 3 * MAX_DEPTH + 1)

    def test_5000_levels_raise_xml_error_not_recursion_error(self):
        with pytest.raises(XMLError):
            parse(_nested(5000))


class TestElementHelpers:
    def test_find_returns_first_match(self):
        root = parse("<a><b i='1'/><b i='2'/></a>").root
        assert root.find("b").attributes["i"] == "1"

    def test_find_missing_returns_none(self):
        root = parse("<a/>").root
        assert root.find("zzz") is None

    def test_find_all(self):
        root = parse("<a><b/><c/><b/></a>").root
        assert len(root.find_all("b")) == 2

    def test_iter_is_preorder(self):
        root = parse("<a><b><c/></b><d/></a>").root
        assert [e.name for e in root.iter()] == ["a", "b", "c", "d"]

    def test_text_concatenates_direct_runs(self):
        root = parse("<a>x<b>skip</b>y</a>").root
        assert root.text() == "xy"


class TestRealisticDocument:
    def test_figure1_document(self, figure1_xml):
        document = parse(figure1_xml)
        picture = document.root.find("picture")
        assert picture.attributes["title"] == "Rear Window"
        cast = picture.find("cast")
        stars = cast.find_all("star")
        assert [s.text() for s in stars] == ["Stewart", "Kelly"]
