"""XML documents parsed by the standard library's expat, in one pass.

:func:`parse` builds the minimal document model (:class:`Document`,
:class:`Element`, :class:`Text`) that keeps document order and
attribute order.  The rooted ordered labeled tree the disambiguation
framework works on is built from it by
:func:`repro.xmltree.dom.build_tree`.

The accepted subset
-------------------
This list is the one statement of what :func:`parse` accepts.

* **Input.**  One XML 1.0 document as a ``str``.  It is handed to expat
  as UTF-8, so an encoding declaration is ignored, and a leading
  U+FEFF byte-order mark is accepted.  A lone surrogate cannot be
  encoded and is rejected.
* **Well-formedness.**  Expat checks XML 1.0 well-formedness: one root
  element, XML names, quoted attribute values without ``<``, no
  duplicate attributes, matched tags, comments without ``--``, no
  ``]]>`` in content, and only XML characters (no C0 controls except
  tab, LF and CR).  Only XML whitespace may surround the root.
* **Names.**  Namespaces are not processed: ``ns:tag`` is one name.
* **Normalization.**  Line ends become LF (XML 1.0 §2.11).  Tab, CR and
  LF in attribute values become spaces (§3.3.3).
* **References.**  The five predefined entities, character references
  (``&#N;`` and ``&#xN;``) and general entities declared in the
  internal DTD subset are expanded, nested ones included.  Replacement
  text that holds markup yields elements.  Undefined, external and
  unparsed entities raise :class:`XMLEntityError`; nothing outside the
  string is ever opened, and the external DTD subset is never read.
* **Expansion bound.**  When the DOCTYPE ends, before anything in the
  body expands, each internal entity's fully expanded length times its
  ``&name;`` occurrences in the rest of the input is summed; past
  :data:`MAX_EXPANSION` characters (or on a reference cycle) the
  document raises :class:`XMLEntityError` there.  Expat's own
  amplification limit (expat 2.4 and later) still applies.
* **Dropped.**  The XML declaration, the DOCTYPE, comments and
  processing instructions leave nothing in the tree.  ``<!ATTLIST>``
  defaults are not applied.
* **Tree.**  An :class:`Element` has its name, its attributes in
  document order and its children.  A :class:`Text` is one run of
  character data between two markup events (a comment or processing
  instruction ends a run too); a run that is whitespace under
  ``str.strip`` is dropped.  Each CDATA section is its own
  :class:`Text`, even when empty.
* **Depth.**  Elements nest at most :data:`MAX_DEPTH` levels.
* **Errors.**  Every rejection is an :class:`XMLSyntaxError` or, for
  entity and character-reference faults, an :class:`XMLEntityError`,
  with expat's message and the 1-based line and column.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from xml.parsers import expat
from xml.parsers.expat import errors

from .errors import XMLEntityError, XMLSyntaxError


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
    """A parsed XML document: its single root element."""

    root: Element


#: Deepest element nesting accepted (libxml2's default maximum depth).
#: A deeper start tag fails with a typed :class:`XMLSyntaxError` at its
#: own position.
MAX_DEPTH = 256

#: Most characters the entity references after the DOCTYPE may expand
#: to, all together (see *Expansion bound* above).
MAX_EXPANSION = 1 << 20

#: A general entity reference, ``&name;``: group 1 is the name.
_REFERENCE = re.compile(r"&([^\s&;<>\"'#]+);")

#: Expat error codes raised as :class:`XMLEntityError`.  Code 43 is
#: XML_ERROR_AMPLIFICATION_LIMIT_BREACH (expat 2.4 and later), which
#: ``pyexpat.errors`` names only from CPython 3.11 on.
_ENTITY_ERRORS = frozenset(
    errors.codes[message] for message in (
        errors.XML_ERROR_UNDEFINED_ENTITY,
        errors.XML_ERROR_RECURSIVE_ENTITY_REF,
        errors.XML_ERROR_BINARY_ENTITY_REF,
        errors.XML_ERROR_ATTRIBUTE_EXTERNAL_ENTITY_REF,
        errors.XML_ERROR_BAD_CHAR_REF,
        errors.XML_ERROR_EXTERNAL_ENTITY_HANDLING,
    )
) | {43}


def _expansion(entities: dict[str, str], rest: str) -> int:
    """Characters the entity references in ``rest`` expand to, at most.

    ``entities`` maps each internal general entity to its replacement
    text.  An entity's expanded length counts its nested references and
    saturates just past :data:`MAX_EXPANSION`; a reference cycle is over
    the bound at once.  Only entities that ``rest`` references are
    walked, iteratively, so a long nesting chain costs no recursion.
    """
    over = MAX_EXPANSION + 1
    refs = {  # entity -> the declared entities its text names
        name: [ref for ref in _REFERENCE.findall(text) if ref in entities]
        for name, text in entities.items()
    }
    length: dict[str, int] = {}
    total = 0
    for root, count in Counter(_REFERENCE.findall(rest)).items():
        if root not in entities:
            continue
        # Post-order walk from ``root``; ``walking`` is the open path.
        stack = [] if root in length else [(root, iter(refs[root]))]
        walking = {root}
        while stack:
            name, pending = stack[-1]
            for ref in pending:
                if ref in walking:
                    return over  # a cycle never stops expanding
                if ref not in length:
                    stack.append((ref, iter(refs[ref])))
                    walking.add(ref)
                    break
            else:
                stack.pop()
                walking.discard(name)
                length[name] = min(over, len(entities[name]) + sum(
                    length[ref] - len(ref) - 2 for ref in refs[name]
                ))
        total += count * length[root]
        if total > MAX_EXPANSION:
            break
    return total


def parse(source: str) -> Document:
    """Parse one XML document (the subset above) into a :class:`Document`.

    Raises :class:`XMLSyntaxError` or :class:`XMLEntityError` for input
    outside the subset.
    """
    try:
        data = source.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise XMLSyntaxError(
            f"character {source[exc.start]!r} cannot be encoded as UTF-8",
            source.count("\n", 0, exc.start) + 1,
            exc.start - source.rfind("\n", 0, exc.start),
        ) from None
    parser = expat.ParserCreate("utf-8")
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.specified_attributes = True
    holder = Element("")  # the root's parent while parsing
    open_elements = [holder]
    run: list[str] = []  # character data since the last markup event
    entities: dict[str, str] = {}  # internal general entity -> replacement

    def located(error: type[XMLSyntaxError], message: str) -> XMLSyntaxError:
        return error(
            message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        )

    def end_run(*_) -> None:
        if run:
            text = "".join(run)
            run.clear()
            if text.strip():
                open_elements[-1].children.append(Text(text))

    def start_element(name: str, attributes: list[str]) -> None:
        end_run()
        if len(open_elements) > MAX_DEPTH:
            raise located(
                XMLSyntaxError, f"elements nested deeper than {MAX_DEPTH} levels"
            )
        element = Element(name, dict(zip(attributes[::2], attributes[1::2])))
        open_elements[-1].children.append(element)
        open_elements.append(element)

    def end_element(_name: str) -> None:
        end_run()
        open_elements.pop()

    def end_cdata() -> None:
        open_elements[-1].children.append(Text("".join(run)))
        run.clear()

    def entity_decl(name, is_parameter_entity, value, *_) -> None:
        if value is not None and not is_parameter_entity:
            entities.setdefault(name, value)  # the first declaration binds

    def end_doctype() -> None:
        if entities and _expansion(
            entities, data[parser.CurrentByteIndex:].decode("utf-8")
        ) > MAX_EXPANSION:
            raise located(
                XMLEntityError,
                f"entity references expand past {MAX_EXPANSION} characters",
            )

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        sigil = "%" if is_parameter_entity else "&"
        raise located(XMLEntityError, f"undefined entity {sigil}{name};")

    def external_entity(_context, _base, system_id, _public_id) -> None:
        raise located(
            XMLEntityError, f"external entity {system_id!r} is never loaded"
        )

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = run.append
    parser.StartCdataSectionHandler = end_run
    parser.EndCdataSectionHandler = end_cdata
    parser.CommentHandler = end_run
    parser.ProcessingInstructionHandler = end_run
    parser.EntityDeclHandler = entity_decl
    parser.EndDoctypeDeclHandler = end_doctype
    parser.SkippedEntityHandler = skipped_entity
    parser.ExternalEntityRefHandler = external_entity
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        error = XMLEntityError if exc.code in _ENTITY_ERRORS else XMLSyntaxError
        raise error(expat.ErrorString(exc.code), exc.lineno, exc.offset + 1) from None
    return Document(holder.children[0])
