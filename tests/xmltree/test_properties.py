"""Property-based tests for the XML substrate (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree.dom import XMLNode, XMLTree, build_tree
from repro.xmltree.escape import escape_attribute, escape_text
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize_document

# -- strategies ----------------------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9]{0,7}", fullmatch=True)
_texts = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("Lu", "Ll", "Nd", "Zs"),
    ),
    max_size=30,
)


@st.composite
def elements(draw, depth=0):
    """Random well-formed element trees (as XML source text)."""
    name = draw(_names)
    n_attrs = draw(st.integers(0, 2))
    attr_names = draw(
        st.lists(_names, min_size=n_attrs, max_size=n_attrs, unique=True)
    )
    attrs = "".join(
        f' {a}="{escape_attribute(draw(_texts))}"' for a in attr_names
    )
    if depth >= 2 or draw(st.booleans()):
        content = escape_text(draw(_texts))
        return f"<{name}{attrs}>{content}</{name}>"
    children = draw(st.lists(elements(depth=depth + 1), max_size=3))
    return f"<{name}{attrs}>{''.join(children)}</{name}>"


@st.composite
def node_trees(draw):
    """Random XMLTree instances built directly from nodes."""
    labels = draw(st.lists(_names, min_size=1, max_size=25))
    root = XMLNode(labels[0])
    nodes = [root]
    for label in labels[1:]:
        parent = draw(st.sampled_from(nodes))
        nodes.append(parent.add_child(XMLNode(label)))
    return XMLTree(root)


# -- escaping ----------------------------------------------------------------------


@given(_texts)
def test_escape_unescape_roundtrip(text):
    # parse drops a run that is whitespace under str.strip.
    expected = text if text.strip() else ""
    assert parse(f"<a>{escape_text(text)}</a>").root.text() == expected


@given(_texts)
def test_attribute_escape_roundtrip(text):
    root = parse(f'<a v="{escape_attribute(text)}"/>').root
    assert root.attributes["v"] == text


@given(_texts)
def test_escaped_text_has_no_raw_markup(text):
    escaped = escape_text(text)
    assert "<" not in escaped


# -- parser / serializer round trip ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(elements())
def test_parse_serialize_parse_fixpoint(xml):
    first = parse(xml)
    text = serialize_document(first)
    second = parse(text)

    def shape(element):
        return (
            element.name,
            tuple(sorted(element.attributes.items())),
            element.text().split(),
            tuple(shape(c) for c in element.child_elements()),
        )

    assert shape(first.root) == shape(second.root)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_build_tree_node_count_stable(xml):
    document = parse(xml)
    tree = build_tree(document.root, include_values=False)
    n_elements = len(document.root.iter())
    n_attrs = sum(len(e.attributes) for e in document.root.iter())
    assert len(tree) == n_elements + n_attrs


# -- tree distance is a metric -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(node_trees(), st.data())
def test_distance_metric_properties(tree, data):
    a = data.draw(st.sampled_from(tree.nodes))
    b = data.draw(st.sampled_from(tree.nodes))
    c = data.draw(st.sampled_from(tree.nodes))
    dab = tree.distance(a, b)
    assert dab == tree.distance(b, a)          # symmetry
    assert (dab == 0) == (a is b)              # identity
    assert dab <= tree.distance(a, c) + tree.distance(c, b)  # triangle


@settings(max_examples=40, deadline=None)
@given(node_trees())
def test_preorder_invariants(tree):
    # Indices are a permutation of range(n); children follow parents.
    indices = [node.index for node in tree]
    assert indices == list(range(len(tree)))
    for node in tree:
        if node.parent is not None:
            assert node.parent.index < node.index
            assert node.depth == node.parent.depth + 1


@settings(max_examples=40, deadline=None)
@given(node_trees())
def test_density_bounded_by_fan_out(tree):
    for node in tree:
        assert 0 <= node.density <= node.fan_out
