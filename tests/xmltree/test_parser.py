"""Unit tests for the XML document parser."""

from __future__ import annotations

import re

import pytest
from xml.parsers.expat import errors

from repro.xmltree.errors import XMLEntityError, XMLError, XMLSyntaxError
from repro.xmltree.parser import (
    MAX_DEPTH,
    MAX_EXPANSION,
    Document,
    Element,
    Text,
    parse,
)


def _nested(levels: int) -> str:
    """``levels`` elements nested one inside the other."""
    return "<a>" * levels + "x" + "</a>" * levels


def _expanding(declarations: str, body: str) -> str:
    """A document whose internal subset is ``declarations``."""
    return f"<!DOCTYPE a [{declarations}]><a>{body}</a>"


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

    def test_prolog_dropped(self):
        document = parse(
            '<?xml version="1.0"?><!DOCTYPE a><!-- c --><?pi data?><a/>'
        )
        assert document == Document(Element("a"))

    def test_comments_dropped(self):
        document = parse("<a><!-- hidden --><b/></a>")
        assert [c.name for c in document.root.child_elements()] == ["b"]


class TestTextRuns:
    """A Text is one run of character data between two markup events."""

    def test_comment_and_pi_end_a_text_run(self):
        root = parse("<a>one<!--c-->two<?p d?>three</a>").root
        assert root.children == [Text("one"), Text("two"), Text("three")]

    def test_long_run_with_references_is_one_text(self):
        # Longer than expat's text buffer, so it arrives in pieces.
        body = "x" * 20000 + "&amp;" + "y" * 20000
        assert parse(f"<a>{body}</a>").root.children == [
            Text("x" * 20000 + "&" + "y" * 20000)
        ]

    def test_cdata_is_its_own_text_even_when_empty(self):
        root = parse("<a>x<![CDATA[]]><![CDATA[  ]]>y</a>").root
        assert root.children == [Text("x"), Text(""), Text("  "), Text("y")]

    def test_attlist_defaults_are_not_applied(self):
        source = '<!DOCTYPE a [<!ATTLIST a d CDATA "default">]><a v="1"/>'
        assert parse(source).root.attributes == {"v": "1"}

    def test_attlist_default_naming_an_entity_is_refused(self):
        # Character references and the predefined entities stay accepted.
        source = '<!DOCTYPE a [<!ATTLIST a d CDATA "&#38;&amp;&lt;">]><a/>'
        assert parse(source).root.attributes == {}
        source = (
            '<!DOCTYPE a [<!ENTITY e "x">\n'
            '  <!ATTLIST a d CDATA "y&e;">]><a/>'
        )
        with pytest.raises(XMLEntityError, match="&e;") as excinfo:
            parse(source)
        assert (excinfo.value.line, excinfo.value.column) == (2, 25)


class TestXMLSpecConformance:
    """Where parse follows the XML 1.0 specification to the letter."""

    def test_crlf_becomes_lf_in_text(self):
        # Section 2.11: CRLF and a lone CR both become LF.
        assert parse("<a>one\r\ntwo\rthree</a>").root.text() == (
            "one\ntwo\nthree"
        )

    def test_attribute_whitespace_becomes_spaces(self):
        # Section 3.3.3: tab, CR, LF (and CRLF) each become one space.
        root = parse('<a v="x\ty\nz\r\nw"/>').root
        assert root.attributes == {"v": "x y z w"}

    def test_nested_internal_entities_expand_fully(self):
        source = (
            '<!DOCTYPE a [<!ENTITY b "B"><!ENTITY c "x&b;y">]><a>&c;</a>'
        )
        assert parse(source).root.text() == "xBy"

    def test_entity_with_markup_yields_elements(self):
        source = '<!DOCTYPE a [<!ENTITY m "<b>in</b>">]><a>x&m;y</a>'
        assert parse(source).root.children == [
            Text("x"), Element("b", {}, [Text("in")]), Text("y"),
        ]

    def test_leading_byte_order_mark_accepted(self):
        assert parse("\ufeff<a>bom</a>").root.children == [Text("bom")]

    @pytest.mark.parametrize("source, position", [
        ("<a>\x01</a>", (1, 4)),
        ("<a>x]]></a>", (1, 7)),
        ("\xa0<a/>", (1, 1)),
    ], ids=["c0-control", "cdata-close-in-content", "nbsp-before-root"])
    def test_non_xml_characters_rejected(self, source, position):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ) as exc:
            parse(source)
        assert (exc.value.line, exc.value.column) == position

    def test_xml_declaration_only_at_the_start(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_MISPLACED_XML_PI)
        ):
            parse('\n<?xml version="1.0"?><a/>')

    def test_lone_surrogate_rejected_at_its_position(self):
        with pytest.raises(XMLSyntaxError, match="UTF-8") as exc:
            parse("<a>\n x\ud800</a>")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_undefined_entity_with_external_subset_raises(self):
        # The external subset could declare it, but it is never read.
        with pytest.raises(XMLEntityError, match="undefined entity &e;"):
            parse('<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>')


class TestMalformedDocuments:
    def test_mismatched_end_tag(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_TAG_MISMATCH)
        ):
            parse("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_NO_ELEMENTS)
        ):
            parse("<a><b>")

    def test_multiple_roots(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT)
        ):
            parse("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_INVALID_TOKEN)
        ):
            parse("stray<a/>")

    def test_empty_document(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_NO_ELEMENTS)
        ):
            parse("   ")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("</a>")

    def test_doctype_after_root(self):
        with pytest.raises(
            XMLSyntaxError, match=re.escape(errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT)
        ):
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


class TestExpansionBound:
    #: A 1,024-character entity: 1,024 references reach the bound exactly.
    KIB = '<!ENTITY k "' + "y" * 1024 + '">'

    def test_expansion_at_the_bound_parses(self):
        assert MAX_EXPANSION == 1 << 20
        text = parse(_expanding(self.KIB, "&k;" * 1024)).root.text()
        assert len(text) == MAX_EXPANSION

    @pytest.mark.parametrize("declarations, body", [
        (KIB, "&k;" * 1025),
        # A reference declared later still counts inside its user.
        ('<!ENTITY n "' + "&k;" * 1025 + '">' + KIB, "&n;"),
        ('<!ENTITY p "&q;"><!ENTITY q "x&p;">', "&p;"),
    ], ids=["one-past", "nested-forward", "cycle"])
    def test_past_the_bound_raises_at_the_doctype_end(
        self, declarations, body
    ):
        source = _expanding(declarations, body)
        with pytest.raises(XMLEntityError, match="expand past") as info:
            parse(source)
        # Located at the ">" that ends the DOCTYPE (1-based column).
        assert info.value.column == source.index("]>") + 2

    def test_unreferenced_cycle_is_never_expanded(self):
        source = _expanding('<!ENTITY p "&q;"><!ENTITY q "&p;">', "x")
        assert parse(source).root.text() == "x"


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
