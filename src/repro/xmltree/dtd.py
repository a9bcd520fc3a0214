"""A minimal DTD grammar parser and validator.

The paper's test corpora are each described by a DTD grammar
(``shakespeare.dtd``, ``movies.dtd``, ``personnel.dtd``, ...).  The
dataset generators in :mod:`repro.datasets` declare those grammars with
this module and validate every generated document against them, which
keeps the synthetic corpora structurally honest.

Supported declarations::

    <!ELEMENT name EMPTY>
    <!ELEMENT name ANY>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT name (a, b?, c*, (d | e)+)>
    <!ATTLIST name attr CDATA #REQUIRED>
    <!ATTLIST name attr CDATA #IMPLIED>

Content models are compiled to small NFA-free recursive matchers (the
grammars involved are tiny, so backtracking cost is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DTDError, ValidationError
from .parser import Element


# -- content model AST --------------------------------------------------------


@dataclass
class _Name:
    """Match exactly one child element with this name."""

    name: str


@dataclass
class _Seq:
    """Match the parts one after another."""

    parts: list


@dataclass
class _Choice:
    """Match exactly one of the alternatives."""

    parts: list


@dataclass
class _Repeat:
    """Apply a ``?``, ``*`` or ``+`` cardinality to an inner model."""

    inner: object
    op: str  # '?', '*', '+'


@dataclass
class ElementDecl:
    """A compiled ``<!ELEMENT>`` declaration."""

    name: str
    model: object  # 'EMPTY' | 'ANY' | 'PCDATA' | 'MIXED' | AST node
    mixed_names: frozenset[str] = frozenset()


@dataclass
class AttributeDecl:
    """One attribute in an ``<!ATTLIST>`` declaration."""

    element: str
    name: str
    attr_type: str  # e.g. CDATA
    default: str    # '#REQUIRED' | '#IMPLIED' | literal default


@dataclass
class DTD:
    """A parsed DTD: element declarations and attribute lists by element."""

    elements: dict[str, ElementDecl] = field(default_factory=dict)
    attributes: dict[str, list[AttributeDecl]] = field(default_factory=dict)

    def validate(self, root: Element) -> None:
        """Validate a document subtree; raises :class:`ValidationError`."""
        for element in root.iter():
            self._validate_element(element)

    def _validate_element(self, element: Element) -> None:
        decl = self.elements.get(element.name)
        if decl is None:
            raise ValidationError(f"element <{element.name}> not declared")
        self._validate_attributes(element)
        child_names = [c.name for c in element.child_elements()]
        if decl.model == "ANY":
            return
        if decl.model == "EMPTY":
            if element.children:
                raise ValidationError(f"<{element.name}> declared EMPTY but has content")
            return
        if decl.model == "PCDATA":
            if child_names:
                raise ValidationError(
                    f"<{element.name}> declared (#PCDATA) but has child elements"
                )
            return
        if decl.model == "MIXED":
            bad = [n for n in child_names if n not in decl.mixed_names]
            if bad:
                raise ValidationError(
                    f"<{element.name}> mixed content disallows children {bad}"
                )
            return
        if element.text().strip():
            raise ValidationError(
                f"<{element.name}> has element content model but contains text"
            )
        if not _matches(decl.model, child_names):
            raise ValidationError(
                f"<{element.name}> children {child_names} do not match its "
                "content model"
            )

    def _validate_attributes(self, element: Element) -> None:
        declared = {d.name: d for d in self.attributes.get(element.name, [])}
        for attr in element.attributes:
            if attr not in declared:
                raise ValidationError(
                    f"attribute '{attr}' not declared for <{element.name}>"
                )
        for decl in declared.values():
            if decl.default == "#REQUIRED" and decl.name not in element.attributes:
                raise ValidationError(
                    f"required attribute '{decl.name}' missing on <{element.name}>"
                )


# -- content model matching ----------------------------------------------------


def _matches(model, names: list[str]) -> bool:
    """True when the whole ``names`` sequence matches ``model``."""
    return any(rest == len(names) for rest in _match_from(model, names, 0))


def _match_from(model, names: list[str], pos: int):
    """Yield every position reachable after matching ``model`` at ``pos``."""
    if isinstance(model, _Name):
        if pos < len(names) and names[pos] == model.name:
            yield pos + 1
        return
    if isinstance(model, _Seq):
        positions = {pos}
        for part in model.parts:
            next_positions: set[int] = set()
            for p in positions:
                next_positions.update(_match_from(part, names, p))
            positions = next_positions
            if not positions:
                return
        yield from positions
        return
    if isinstance(model, _Choice):
        seen: set[int] = set()
        for part in model.parts:
            for p in _match_from(part, names, pos):
                if p not in seen:
                    seen.add(p)
                    yield p
        return
    if isinstance(model, _Repeat):
        if model.op in ("?", "*"):
            yield pos
        positions = {pos}
        seen = set()
        # Iterate matches of the inner model until no progress is made.
        while positions:
            next_positions: set[int] = set()
            for p in positions:
                for q in _match_from(model.inner, names, p):
                    if q not in seen and q > p:
                        seen.add(q)
                        next_positions.add(q)
            for q in next_positions:
                yield q
            if model.op == "?":
                return
            positions = next_positions
        return
    raise DTDError(f"unknown content model node {model!r}")


# -- DTD text parsing -----------------------------------------------------------


class _ModelParser:
    """Recursive-descent parser for element content model expressions."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    def parse(self):
        model = self._parse_group_or_name()
        self._skip_ws()
        if self._pos != len(self._text):
            raise DTDError(f"trailing content model text: {self._text[self._pos:]!r}")
        return model

    def _skip_ws(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1

    def _peek(self) -> str:
        return self._text[self._pos] if self._pos < len(self._text) else ""

    def _parse_group_or_name(self):
        self._skip_ws()
        if self._peek() == "(":
            model = self._parse_group()
        else:
            model = _Name(self._parse_name())
        return self._maybe_repeat(model)

    def _maybe_repeat(self, model):
        if self._peek() and self._peek() in "?*+":
            op = self._text[self._pos]
            self._pos += 1
            return _Repeat(model, op)
        return model

    def _parse_name(self) -> str:
        start = self._pos
        while self._pos < len(self._text) and (
            self._text[self._pos].isalnum() or self._text[self._pos] in "_:.-"
        ):
            self._pos += 1
        if start == self._pos:
            raise DTDError(f"expected name at offset {start} in content model")
        return self._text[start : self._pos]

    def _parse_group(self):
        assert self._peek() == "("
        self._pos += 1
        parts = [self._parse_group_or_name()]
        separator = ""
        while True:
            self._skip_ws()
            ch = self._peek()
            if not ch:
                raise DTDError("unterminated group in content model")
            if ch == ")":
                self._pos += 1
                break
            if ch in ",|":
                if separator and ch != separator:
                    raise DTDError("cannot mix ',' and '|' in one group")
                separator = ch
                self._pos += 1
                parts.append(self._parse_group_or_name())
            else:
                raise DTDError(f"unexpected character {ch!r} in content model")
        group = _Choice(parts) if separator == "|" else _Seq(parts)
        return self._maybe_repeat(group)


def parse_dtd(text: str) -> DTD:
    """Parse DTD declaration text into a :class:`DTD`."""
    dtd = DTD()
    pos = 0
    while True:
        start = text.find("<!", pos)
        if start == -1:
            break
        end = text.find(">", start)
        if end == -1:
            raise DTDError("unterminated declaration")
        decl = text[start + 2 : end].strip()
        pos = end + 1
        if decl.startswith("ELEMENT"):
            _parse_element_decl(decl[len("ELEMENT") :].strip(), dtd)
        elif decl.startswith("ATTLIST"):
            _parse_attlist_decl(decl[len("ATTLIST") :].strip(), dtd)
        elif decl.startswith("--"):
            continue  # comment
        elif decl.startswith("ENTITY"):
            continue  # entities are expanded by the parser (expat)
        else:
            raise DTDError(f"unsupported declaration <!{decl.split(None, 1)[0]}...>")
    return dtd


def _parse_element_decl(body: str, dtd: DTD) -> None:
    parts = body.split(None, 1)
    if len(parts) != 2:
        raise DTDError(f"malformed ELEMENT declaration: {body!r}")
    name, model_text = parts
    model_text = model_text.strip()
    if model_text == "EMPTY":
        decl = ElementDecl(name, "EMPTY")
    elif model_text == "ANY":
        decl = ElementDecl(name, "ANY")
    elif model_text.replace(" ", "") == "(#PCDATA)":
        decl = ElementDecl(name, "PCDATA")
    elif model_text.replace(" ", "").startswith("(#PCDATA|"):
        inner = model_text.strip()
        if inner.endswith("*"):
            inner = inner[:-1]
        inner = inner.strip("() ")
        names = frozenset(
            piece.strip() for piece in inner.split("|") if piece.strip() != "#PCDATA"
        )
        decl = ElementDecl(name, "MIXED", names)
    else:
        decl = ElementDecl(name, _ModelParser(model_text).parse())
    dtd.elements[name] = decl


def _parse_attlist_decl(body: str, dtd: DTD) -> None:
    tokens = body.split()
    if not tokens:
        raise DTDError("empty ATTLIST declaration")
    element = tokens[0]
    rest = tokens[1:]
    if len(rest) % 3 != 0:
        raise DTDError(f"malformed ATTLIST for '{element}': {body!r}")
    for i in range(0, len(rest), 3):
        attr_name, attr_type, default = rest[i : i + 3]
        dtd.attributes.setdefault(element, []).append(
            AttributeDecl(element, attr_name, attr_type, default)
        )
