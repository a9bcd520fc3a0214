"""Recursive XML document parser built on :mod:`repro.xmltree.lexer`.

Produces a minimal document model (:class:`Document`, :class:`Element`,
:class:`Text`) that preserves document order and attribute order.  The
rooted-ordered-labeled-tree used by the disambiguation framework is built
from this model by :func:`repro.xmltree.dom.build_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import XMLSyntaxError
from .lexer import Token, TokenType, XMLLexer


@dataclass
class Text:
    """A run of character data inside an element."""

    content: str


@dataclass
class Element:
    """An XML element: name, ordered attributes, and ordered children."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["Element | Text"] = field(default_factory=list)

    def child_elements(self) -> list["Element"]:
        """Only the element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def text(self) -> str:
        """Concatenated direct text content (whitespace preserved)."""
        return "".join(c.content for c in self.children if isinstance(c, Text))

    def find(self, name: str) -> "Element | None":
        """First direct child element called ``name`` (or None)."""
        for child in self.child_elements():
            if child.name == name:
                return child
        return None

    def find_all(self, name: str) -> list["Element"]:
        """All direct child elements called ``name``."""
        return [c for c in self.child_elements() if c.name == name]

    def iter(self) -> list["Element"]:
        """This element and every descendant element, preorder."""
        out: list[Element] = []
        stack = [self]
        while stack:
            element = stack.pop()
            out.append(element)
            stack.extend(reversed(element.child_elements()))
        return out


@dataclass
class Document:
    """A parsed XML document: prolog info plus the single root element."""

    root: Element
    doctype: str | None = None
    processing_instructions: list[str] = field(default_factory=list)


#: Deepest element nesting accepted (libxml2's default maximum depth).
#: Deeper documents fail with a typed :class:`XMLSyntaxError` instead of
#: exhausting the interpreter stack in the recursive descent.
MAX_DEPTH = 256


class XMLParser:
    """Token-stream parser enforcing XML well-formedness rules.

    The parser validates tag nesting/matching, rejects content outside the
    root element, and drops comments (they carry no tree information).
    Whitespace-only text between elements is discarded; mixed content text
    is preserved verbatim.  Nesting deeper than :data:`MAX_DEPTH` elements
    is rejected.
    """

    def __init__(self, source: str):
        self._lexer = XMLLexer(source)
        self._tokens = self._lexer.tokens()
        self._current: Token = next(self._tokens)

    def _advance(self) -> Token:
        token = self._current
        self._current = next(self._tokens)
        return token

    def parse(self) -> Document:
        """Parse the token stream into a single-rooted ``Document``."""
        doctype: str | None = None
        pis: list[str] = []
        root: Element | None = None
        while self._current.type is not TokenType.EOF:
            token = self._current
            if token.type is TokenType.TEXT:
                if token.value.strip():
                    raise XMLSyntaxError(
                        "character data outside root element",
                        token.line,
                        token.column,
                    )
                self._advance()
            elif token.type is TokenType.COMMENT:
                self._advance()
            elif token.type is TokenType.PI:
                pis.append(token.value)
                self._advance()
            elif token.type is TokenType.DOCTYPE:
                if root is not None:
                    raise XMLSyntaxError(
                        "DOCTYPE after root element", token.line, token.column
                    )
                doctype = token.value
                self._advance()
            elif token.type in (TokenType.START_TAG, TokenType.EMPTY_TAG):
                if root is not None:
                    raise XMLSyntaxError(
                        "multiple root elements", token.line, token.column
                    )
                root = self._parse_element()
            else:
                raise XMLSyntaxError(
                    f"unexpected {token.type.value} at document level",
                    token.line,
                    token.column,
                )
        if root is None:
            raise XMLSyntaxError("document has no root element")
        return Document(root=root, doctype=doctype, processing_instructions=pis)

    def _parse_element(self, depth: int = 1) -> Element:
        token = self._advance()
        if depth > MAX_DEPTH:
            raise XMLSyntaxError(
                f"elements nested deeper than {MAX_DEPTH} levels",
                token.line,
                token.column,
            )
        element = Element(name=token.value, attributes=dict(token.attributes))
        if token.type is TokenType.EMPTY_TAG:
            return element
        while True:
            current = self._current
            if current.type is TokenType.END_TAG:
                if current.value != element.name:
                    raise XMLSyntaxError(
                        f"mismatched end tag </{current.value}>, "
                        f"expected </{element.name}>",
                        current.line,
                        current.column,
                    )
                self._advance()
                return element
            if current.type is TokenType.EOF:
                raise XMLSyntaxError(
                    f"unexpected end of document inside <{element.name}>",
                    current.line,
                    current.column,
                )
            if current.type in (TokenType.START_TAG, TokenType.EMPTY_TAG):
                element.children.append(self._parse_element(depth + 1))
            elif current.type is TokenType.TEXT:
                if current.value.strip():
                    element.children.append(Text(current.value))
                self._advance()
            elif current.type is TokenType.CDATA:
                element.children.append(Text(current.value))
                self._advance()
            elif current.type in (TokenType.COMMENT, TokenType.PI):
                self._advance()
            else:
                raise XMLSyntaxError(
                    f"unexpected {current.type.value} inside element",
                    current.line,
                    current.column,
                )


def parse(source: str) -> Document:
    """Parse an XML string into a :class:`Document`."""
    return XMLParser(source).parse()


def parse_file(path) -> Document:
    """Parse the XML file at ``path`` (text mode, UTF-8)."""
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read())
