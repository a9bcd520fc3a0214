"""XML substrate: expat-built documents, DOM, DTD, serialization.

:func:`parse` builds the document with the standard library's expat
(the accepted subset is listed in :mod:`repro.xmltree.parser`); the
semantic tree (DOM), the DTD-lite validator, XPath-lite and the
serializers are written from scratch.

Public surface::

    from repro.xmltree import parse, build_tree
    document = parse("<films><picture title='Rear Window'/></films>")
    tree = build_tree(document.root)
"""

from .dom import NodeKind, XMLNode, XMLTree, build_tree
from .dtd import DTD, parse_dtd
from .errors import (
    DTDError,
    TreeError,
    ValidationError,
    XMLEntityError,
    XMLError,
    XMLSyntaxError,
)
from .parser import Document, Element, Text, parse
from .xpath import XPathSyntaxError, select, select_one
from .serializer import (
    serialize_document,
    serialize_element,
    serialize_semantic_tree,
)

__all__ = [
    "DTD",
    "DTDError",
    "Document",
    "Element",
    "NodeKind",
    "Text",
    "TreeError",
    "ValidationError",
    "XMLEntityError",
    "XMLError",
    "XMLNode",
    "XMLSyntaxError",
    "XMLTree",
    "XPathSyntaxError",
    "build_tree",
    "parse",
    "parse_dtd",
    "serialize_document",
    "serialize_element",
    "select",
    "select_one",
    "serialize_semantic_tree",
]
