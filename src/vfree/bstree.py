"""Local geometry of the tree associated with a graph of finite groups.

Vertices of the (usually infinite) tree are stored intrinsically as a
vertex orbit plus a canonical coset representative: the normal form of a
path from the base vertex with its trailing free element dropped.  All
queries (adjacency, distance, classification, axis windows) are local;
nothing global is ever materialized except small breadth-first balls used
by callers that explicitly ask for them, and the frame of each orbit's
standard vertex (its neighbors and stabilizer), which is built once per
graph of groups and kept on it.

Tree vertices, axis segments and classifications are named tuples: each
hashes as the plain tuple of its fields and compares equal to it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .gogwords import (
    GogError,
    GraphOfGroups,
    NormalForm,
    Traversal,
    end_vertex,
    cyclic_reduction,
    path_invert,
    path_multiply,
    path_normal_form,
)


class TreeVertex(NamedTuple):
    """A tree vertex g·(lift of orbit vertex), with g the canonical
    minimal coset representative.

    A named tuple, like NormalForm: it hashes as the plain tuple
    (orbit, coset_rep), compares equal to it and is ordered like it."""

    orbit: str
    coset_rep: NormalForm


class AxisSegment(NamedTuple):
    element: NormalForm
    vertices: tuple[TreeVertex, ...]
    period: int


class Classification(NamedTuple):
    kind: str  # "elliptic" or "hyperbolic"
    fixed_vertex: Optional[TreeVertex]
    translation_length: int


class Frame(NamedTuple):
    """The standard vertex of an orbit, the set of its neighbors, and its
    stabilizer as a tuple indexed by the orbit's vertex group."""

    vertex: TreeVertex
    neighbors: frozenset
    stabilizer: tuple


def vertex_from_path(gog: GraphOfGroups, p: NormalForm) -> TreeVertex:
    """The tree vertex reached by a path from the base (the trailing
    element is dropped; it stabilizes the vertex).  p must be a normal
    form from this library; it is not reduced again."""
    orbit = end_vertex(gog, p)
    rep = NormalForm(p.start, p.steps, gog.vertices[orbit].identity)
    return TreeVertex(orbit, rep)


def standard_vertex(gog: GraphOfGroups, orbit: str) -> TreeVertex:
    """The canonical lift of a quotient vertex: reached by the spanning
    tree path from the base."""
    if orbit not in gog.vertices:
        raise GogError(f"unknown vertex {orbit!r}")
    steps = [(gog.vertices[gog.near(t)].identity, t)
             for t in gog.tree_path(gog.base_vertex, orbit)]
    return vertex_from_path(
        gog, path_normal_form(gog, gog.base_vertex, steps,
                              gog.vertices[orbit].identity))


def base_vertex(gog: GraphOfGroups) -> TreeVertex:
    return standard_vertex(gog, gog.base_vertex)


def stabilizer(gog: GraphOfGroups, v: TreeVertex) -> list[NormalForm]:
    """The stabilizer of a tree vertex, as based loops indexed by the
    vertex group at v.orbit: entry x is rep·x·rep⁻¹ for rep the coset
    representative of v, so products of entries follow that group's
    table."""
    rep = v.coset_rep
    rep_inv = path_invert(gog, rep)
    return [path_multiply(gog, rep, NormalForm(v.orbit, (), x), rep_inv)
            for x in gog.vertices[v.orbit].elements()]


def standard_frame(gog: GraphOfGroups, orbit: str) -> Frame:
    """The frame at the standard vertex of an orbit, built the first time
    it is asked for and kept on the graph of groups."""
    frame = gog._frames.get(orbit)
    if frame is None:
        std = standard_vertex(gog, orbit)
        frame = gog._frames[orbit] = Frame(
            std, frozenset(neighbors(gog, std)), tuple(stabilizer(gog, std)))
    return frame


def translate(gog: GraphOfGroups, g: NormalForm, v: TreeVertex) -> TreeVertex:
    """The action of a group element on a tree vertex.  g must be a normal
    form from this library; it is not reduced again."""
    return vertex_from_path(gog, path_multiply(gog, g, v.coset_rep))


def _step(gog: GraphOfGroups, p: NormalForm, r: int,
          t: Traversal) -> NormalForm:
    """The path p followed by the element r at its end and the traversal t,
    as a seam product."""
    q = NormalForm(gog.near(t), ((r, t),), gog.vertices[gog.far(t)].identity)
    return path_multiply(gog, p, q)


def neighbor(gog: GraphOfGroups, v: TreeVertex, r: int,
             t: Traversal) -> TreeVertex:
    """The neighbor of v across r·t: r is an element of the group at
    v.orbit and t a traversal starting there."""
    return vertex_from_path(gog, _step(gog, v.coset_rep, r, t))


def neighbors(gog: GraphOfGroups, v: TreeVertex) -> list[TreeVertex]:
    """All adjacent tree vertices: one per coset of each incident edge
    group image (the count is the sum of the indices)."""
    return [neighbor(gog, v, r, t)
            for t in gog.incident(v.orbit) for r in gog.transversal(t)]


def distance(gog: GraphOfGroups, u: TreeVertex, w: TreeVertex) -> int:
    """Tree distance, read off the normalized connecting path."""
    p = path_multiply(gog, path_invert(gog, u.coset_rep), w.coset_rep)
    return len(p.steps)


def classify(gog: GraphOfGroups, g: NormalForm) -> Classification:
    """Elliptic elements come with a fixed vertex, hyperbolic ones with
    their translation length (the cyclically reduced syllable count).
    g must be a normal form from this library."""
    conj, core = cyclic_reduction(gog, g)
    if not core.steps:
        return Classification("elliptic", vertex_from_path(gog, conj), 0)
    return Classification("hyperbolic", None, len(core.steps))


def axis_window(gog: GraphOfGroups, g: NormalForm, periods: int,
                anchor: Optional[TreeVertex] = None) -> AxisSegment:
    """A geodesic window of the axis covering `periods` fundamental
    domains, starting at a vertex displaced by exactly the translation
    length (the canonical anchor from cyclic reduction, or a caller-chosen
    axis vertex).  g must be a normal form from this library."""
    if periods < 1:
        raise GogError("periods must be positive")
    conj, core = cyclic_reduction(gog, g)
    if not core.steps:
        raise GogError("no axis: element is elliptic")
    length = len(core.steps)
    if anchor is None:
        anchor = vertex_from_path(gog, conj)
    stretch = path_multiply(
        gog, path_invert(gog, anchor.coset_rep),
        path_multiply(gog, g, anchor.coset_rep))
    if len(stretch.steps) != length:
        raise GogError("anchor is not on the axis")
    # The running path keeps its trailing element: the edge-group part
    # carried along a step decides which neighbor the next step reaches.
    verts = [anchor]
    path = anchor.coset_rep
    for _ in range(periods):
        for r, t in stretch.steps:
            path = _step(gog, path, r, t)
            verts.append(vertex_from_path(gog, path))
        path = path_multiply(gog, path,
                             NormalForm(anchor.orbit, (), stretch.tail))
    return AxisSegment(g, tuple(verts), length)


def ball(gog: GraphOfGroups, center: TreeVertex, radius: int
         ) -> dict[TreeVertex, int]:
    """Breadth-first ball: vertex -> distance from the center.  Intended
    for small radii; the ball grows exponentially."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in neighbors(gog, v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist
