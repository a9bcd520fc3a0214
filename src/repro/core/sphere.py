"""XML sphere neighborhoods (paper Definitions 4-5).

An XML *ring* ``R_d(x)`` is the set of nodes at exactly ``d`` edges from
the target node ``x`` in the undirected document tree; an XML *sphere*
``S_d(x)`` collects the rings at distances up to ``d``.  The sphere is
the disambiguation context: it covers ancestors, descendants, *and*
siblings uniformly, unlike the parent-node / root-path / sub-tree
contexts of prior work (the paper's Motivation 2).

Following the paper's worked example (Figure 7, vector ``V_1(T[2])``
where the target's own label carries weight), the sphere includes its
center at distance 0.  The paper's prose for ``V_2`` counts the sphere
without its center — an internal inconsistency; the center-inclusive
reading reproduces ``V_1`` exactly, and since the alternative only
rescales every weight by the same constant, cosine comparisons and
arg-max decisions are identical under both readings (see DESIGN.md).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from ..xmltree.dom import XMLNode, XMLTree
from .distances import DistancePolicy


class SphereMember(NamedTuple):
    """One node of a sphere neighborhood with its ring distance.

    ``distance`` is an edge count under the default uniform policy and a
    path cost under weighted distance policies (paper future work,
    :mod:`repro.core.distances`).  A plain tuple, so scoring loops
    unpack ``for node, distance in sphere.members``.
    """

    node: XMLNode
    distance: float


class Sphere:
    """The sphere neighborhood ``S_d(x)`` of a target node.

    Iterable over :class:`SphereMember` entries (center first, then by
    increasing ring distance in preorder order within each ring).
    """

    def __init__(self, center: XMLNode, radius: int, members: list[SphereMember]):
        self.center = center
        self.radius = radius
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def ring(self, distance: int) -> list[XMLNode]:
        """The ring ``R_distance(x)`` inside this sphere."""
        return [m.node for m in self.members if m.distance == distance]

    def labels(self) -> list[str]:
        """Distinct labels present in the sphere, in first-seen order."""
        seen: dict[str, None] = {}
        for member in self.members:
            seen.setdefault(member.node.label, None)
        return list(seen)


def build_sphere(
    tree: XMLTree,
    center: XMLNode,
    radius: float,
    policy: DistancePolicy | None = None,
) -> Sphere:
    """Construct ``S_radius(center)`` over ``tree``.

    With the default uniform policy this is the paper's breadth-first
    ring expansion (each node reached once at its minimal edge count).
    With a weighted :class:`~repro.core.distances.DistancePolicy` it
    becomes a uniform-cost search and rings are cost bands (the distance
    function extension the paper defers to future work).
    """
    if radius < 0:
        raise ValueError("sphere radius must be non-negative")
    if policy is None:
        members = _bfs_members(center, radius)
    else:
        members = _dijkstra_members(center, radius, policy)
    # Deterministic order: ring distance, then preorder index.
    members.sort(key=lambda m: (m.distance, m.node.index))
    return Sphere(center, radius, members)


def _neighbors(node: XMLNode) -> list[tuple[XMLNode, bool]]:
    """(neighbor, ascending) pairs for the undirected tree edges."""
    out: list[tuple[XMLNode, bool]] = []
    if node.parent is not None:
        out.append((node.parent, True))
    out.extend((child, False) for child in node.children)
    return out


def _bfs_members(center: XMLNode, radius: float) -> list[SphereMember]:
    # Hot path (one call per target node): the member list is the BFS
    # queue (iterating a list sees the entries appended during the
    # loop), and the parent/children edges are visited inline, in the
    # same parent-first order `_neighbors` yields.
    visited = {center.index}
    members = [SphereMember(center, 0)]
    visited_add = visited.add
    members_append = members.append
    # tuple.__new__ skips SphereMember's Python-level __new__.
    member = tuple.__new__
    for node, distance in members:
        if distance >= radius:
            continue
        next_distance = distance + 1
        parent = node.parent
        if parent is not None and parent.index not in visited:
            visited_add(parent.index)
            members_append(member(SphereMember, (parent, next_distance)))
        for child in node.children:
            if child.index not in visited:
                visited_add(child.index)
                members_append(member(SphereMember, (child, next_distance)))
    return members


def _dijkstra_members(
    center: XMLNode, radius: float, policy: DistancePolicy
) -> list[SphereMember]:
    best: dict[int, float] = {center.index: 0.0}
    nodes: dict[int, XMLNode] = {center.index: center}
    heap: list[tuple[float, int]] = [(0.0, center.index)]
    while heap:
        cost, index = heapq.heappop(heap)
        if cost > best[index]:
            continue  # stale entry
        node = nodes[index]
        for neighbor, ascending in _neighbors(node):
            if ascending:
                edge = policy.edge_cost(neighbor, node, ascending=True)
            else:
                edge = policy.edge_cost(node, neighbor, ascending=False)
            total = cost + edge
            if total > radius + 1e-12:
                continue
            if total < best.get(neighbor.index, float("inf")):
                best[neighbor.index] = total
                nodes[neighbor.index] = neighbor
                heapq.heappush(heap, (total, neighbor.index))
    return [SphereMember(nodes[i], cost) for i, cost in best.items()]


def build_ring(tree: XMLTree, center: XMLNode, distance: int) -> list[XMLNode]:
    """The ring ``R_distance(center)`` (Definition 4)."""
    return build_sphere(tree, center, distance).ring(distance)
