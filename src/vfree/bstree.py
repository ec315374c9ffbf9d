"""Local geometry of the tree associated with a graph of finite groups.

Vertices of the (usually infinite) tree are stored intrinsically as a
vertex orbit plus a canonical coset representative: the normal form of a
path from the base vertex with its trailing free element dropped.  All
queries (adjacency, distance, classification, axis windows) are local;
nothing global is ever materialized except small breadth-first balls used
by callers that explicitly ask for them, and the frame of each orbit's
standard vertex (its neighbors, each under its direction, and its
stabilizer), which is built once per graph of groups and kept as the
fingroup module docstring says.

A neighbor of a tree vertex c·v is a coset c·r·ι_t(G_e) (Serre, Trees,
§I.4), named by its direction, the pair (t, r) with r a canonical coset
representative; act moves a direction by a vertex-group element with one
table lookup, no normal-form product.

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
    _reduce_into,
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
    """The standard vertex of an orbit, the set of its neighbors, its
    stabilizer as a tuple indexed by the orbit's vertex group, and the
    neighbor in each direction (t, r) there, r in gog.transversal(t)."""

    vertex: TreeVertex
    neighbors: frozenset
    stabilizer: tuple
    directions: dict


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
    table.  Each entry reduces only rep⁻¹ onto rep·x, as path_multiply
    does."""
    rep = v.coset_rep
    inv = path_invert(gog, rep)
    row = gog.vertices[v.orbit].table[rep.tail]
    out = []
    for x in gog.vertices[v.orbit].elements():
        steps = list(rep.steps)
        tail = _reduce_into(gog, steps, v.orbit, row[x], inv.steps,
                            inv.tail)[1]
        out.append(NormalForm(rep.start, tuple(steps), tail))
    return out


def standard_frame(gog: GraphOfGroups, orbit: str) -> Frame:
    """The frame at the standard vertex of an orbit, built the first time
    it is asked for and kept on the graph of groups."""
    frame = gog._facts.get(orbit)
    if frame is None:
        std = standard_vertex(gog, orbit)
        near = dict(zip(_directions(gog, orbit), neighbors(gog, std)))
        frame = gog._facts[orbit] = Frame(
            std, frozenset(near.values()), tuple(stabilizer(gog, std)), near)
    return frame


def _product_vertex(gog: GraphOfGroups, p: NormalForm,
                    q: NormalForm) -> TreeVertex:
    """The tree vertex reached by the path p * q, at the end vertex its
    reduction returns (the trailing element is dropped): p's steps are
    kept, and only the seam and q are reduced, as by path_multiply."""
    if end_vertex(gog, p) != q.start:
        raise GogError("paths are not composable")
    steps = list(p.steps)
    end = _reduce_into(gog, steps, q.start, p.tail, q.steps, q.tail)[0]
    return TreeVertex(end, NormalForm(p.start, tuple(steps),
                                      gog.vertices[end].identity))


def translate(gog: GraphOfGroups, g: NormalForm, v: TreeVertex) -> TreeVertex:
    """The action of a group element on a tree vertex.  g must be a normal
    form from this library; it is not reduced again."""
    return _product_vertex(gog, g, v.coset_rep)


def _step(gog: GraphOfGroups, r: int, t: Traversal) -> NormalForm:
    """The one-step path r·t from near(t) to far(t)."""
    return NormalForm(gog.near(t), ((r, t),), gog.vertices[gog.far(t)].identity)


def neighbor(gog: GraphOfGroups, v: TreeVertex, r: int,
             t: Traversal) -> TreeVertex:
    """The neighbor of v across r·t: r is an element of the group at
    v.orbit and t a traversal starting there."""
    return _product_vertex(gog, v.coset_rep, _step(gog, r, t))


def _directions(gog: GraphOfGroups,
                orbit: str) -> list[tuple[Traversal, int]]:
    """The directions (t, r) at a vertex of an orbit, in the order
    neighbors lists their neighbors: t incident there, r in
    gog.transversal(t)."""
    return [(t, r) for t in gog.incident(orbit) for r in gog.transversal(t)]


def neighbors(gog: GraphOfGroups, v: TreeVertex) -> list[TreeVertex]:
    """All adjacent tree vertices: one per coset of each incident edge
    group image (the count is the sum of the indices)."""
    return [neighbor(gog, v, r, t) for t, r in _directions(gog, v.orbit)]


def act(gog: GraphOfGroups, x: int, d: Optional[tuple[Traversal, int]]
        ) -> Optional[tuple[Traversal, int]]:
    """The image of a direction d at a tree vertex v under stabilizer(gog,
    v)[x], x an element of the group at v.orbit: one lookup in that
    group's table and in the coset data of t's edge image.  None, the
    vertex itself, is fixed."""
    if d is None:
        return None
    t, r = d
    c = gog._crossing[t]
    return t, c.decomp[gog.vertices[c.near].table[x][r]][0]


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
            path = path_multiply(gog, path, _step(gog, r, t))
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
