"""Equivariant edge folding of marked trees over a graph of groups.

A marked tree presents a simplicial tree with an action of the fundamental
group G of an ambient graph of groups, together with an equivariant map to
the ambient tree that sends edges to edges (or, transiently, to points).
The presentation keeps one lift per orbit: every shape vertex records its
stabilizer as an explicit finite set of based normal forms plus the image
vertex in the ambient tree, and every shape edge records a twist element
of G placing the far endpoint of its lift. Folds identify edges with equal
images, growing stabilizers by closure, and drive the presentation toward
the ambient quotient itself. A finite stabilizer fixes a vertex of the
ambient tree, a marked vertex's image or an edge's near image, so its
closures and subgroup checks run in that vertex group's table.
Marked vertices and edges and fold directives are named tuples, equal
to the plain tuples of their fields.

A marked tree is checked once, where it comes in, images and twists as
normal forms too, and keeps each edge end's far image as a direction
(t, r) at its near image, the pair bstree.neighbor reads as r·t, None
for an edge mapping to a point: both ends' directions are read off one
product.
Folds translate no tree vertex: a stabilizer element moves a direction by
a table lookup (bstree.act), and a merge moves the directions at the gone
vertex by one group element. A fold checks its directive (caller data)
and builds its result unchecked; a marked tree is not changed after it is
built. Folds are listed lazily, in priority order, so a fold sequence
stops listing at its first pick.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .bstree import (
    TreeVertex,
    act,
    base_vertex,
    neighbor,
    stabilizer,
    standard_frame,
    vertex_from_path,
)
from .fingroup import subgroup_closure
from .gogwords import (
    GogError,
    GraphOfGroups,
    NormalForm,
    Traversal,
    _spanning_forest,
    end_vertex,
    identity_nf,
    normal_form,
    parse_word,
    path_invert,
    path_multiply,
    path_normal_form,
)


class StepLimitError(GogError):
    """A fold sequence ran out of steps before reaching its target."""


def _nf(gog: GraphOfGroups, w) -> NormalForm:
    """A marking input as a checked normal form: strings are parsed, and
    anything else is reduced and checked as a loop word."""
    if isinstance(w, str):
        return parse_word(gog, w)
    return normal_form(gog, w)


def _conj_set(gog: GraphOfGroups, c: NormalForm,
              elts: Iterable[NormalForm]) -> frozenset:
    """The set {c g c^-1 : g in elts}."""
    ci = path_invert(gog, c)
    return frozenset(path_multiply(gog, c, g, ci) for g in elts)


def _table_indices(gog: GraphOfGroups, at: TreeVertex, elements,
                   outside: str) -> tuple[list[NormalForm], list[int]]:
    """The stabilizer of the tree vertex at, indexed by its vertex group,
    and the indices of the elements in it; an element that does not fix
    at raises GogError(outside)."""
    table = stabilizer(gog, at)
    index = {s: x for x, s in enumerate(table)}
    idx = [index.get(g) for g in elements]
    if None in idx:
        raise GogError(outside)
    return table, idx


_NOT_FIXED = "fold element does not fix its vertex"


def _closure(gog: GraphOfGroups, at: TreeVertex, elements) -> frozenset:
    """The subgroup generated by elements fixing the tree vertex at,
    closed in the table of its vertex group."""
    table, idx = _table_indices(gog, at, elements, _NOT_FIXED)
    sub = subgroup_closure(gog.vertices[at.orbit], idx)
    return frozenset(table[x] for x in sub.elements)


class MarkedVertex(NamedTuple):
    image: TreeVertex
    stab: frozenset


class MarkedEdge(NamedTuple):
    ends: tuple[str, str]
    twist: NormalForm
    stab: frozenset


class FoldDirective(NamedTuple):
    """One fold step: pair (identify two edge ends with equal images),
    stabilizer (identify an edge with its translates under part of the
    near vertex stabilizer), or collapse (remove an edge mapping to a
    point). The classification is stamped on when a sequence applies it.
    """

    kind: str
    edge: str
    end: int = 0
    edge2: Optional[str] = None
    end2: Optional[int] = None
    elements: tuple = ()
    classification: Optional[str] = None


def pair_fold(edge: str, end: int, edge2: str, end2: int) -> FoldDirective:
    return FoldDirective("pair", edge, end, edge2, end2)


def stabilizer_fold(edge: str, end: int, elements) -> FoldDirective:
    return FoldDirective("stabilizer", edge, end, elements=tuple(elements))


def collapse_fold(edge: str) -> FoldDirective:
    return FoldDirective("collapse", edge)


def marked_vertex(gog: GraphOfGroups, image: TreeVertex, stab) -> MarkedVertex:
    return MarkedVertex(image, frozenset(_nf(gog, s) for s in stab))


def marked_edge(gog: GraphOfGroups, ends, twist, stab) -> MarkedEdge:
    return MarkedEdge(tuple(ends), _nf(gog, twist),
                      frozenset(_nf(gog, s) for s in stab))


class MarkedTree:
    """A finite presentation of a tree with a group action and a map.

    vertices maps names to MarkedVertex records, edges maps names to
    MarkedEdge records; the edge with ends (a, b) and twist d presents
    the tree edge running from the lift of a to d times the lift of b.
    """

    def __init__(self, ambient: GraphOfGroups, vertices, edges):
        self.ambient = ambient
        self.vertices = dict(vertices)
        self.edges = dict(edges)
        self.validate()

    @classmethod
    def _built(cls, ambient: GraphOfGroups, vertices, edges,
               far_images) -> MarkedTree:
        """A fold's result, sound by construction: not validated."""
        tree = cls.__new__(cls)
        tree.ambient, tree.vertices, tree.edges = ambient, vertices, edges
        tree._far_images = far_images
        return tree

    def validate(self) -> None:
        gog = self.ambient
        if not self.vertices:
            raise GogError("marked tree needs at least one vertex")
        for name, mv in self.vertices.items():
            if not isinstance(mv, MarkedVertex):
                raise GogError(f"vertex {name!r} is not a MarkedVertex")
            img = mv.image
            if not (isinstance(img, TreeVertex)
                    and self._is_normal(img.coset_rep, img.orbit)
                    and img == vertex_from_path(gog, img.coset_rep)):
                raise GogError(f"vertex {name!r} image is not a tree vertex "
                               "in normal form")
            self._check_subgroup(
                f"vertex {name!r}", mv.stab, mv.image,
                f"stabilizer entry at vertex {name!r} does not fix its image")
        far = self._far_images = {}
        for eid, me in self.edges.items():
            if not isinstance(me, MarkedEdge):
                raise GogError(f"edge {eid!r} is not a MarkedEdge")
            if len(me.ends) != 2:
                raise GogError(f"edge {eid!r} does not have two ends")
            a, b = me.ends
            if a not in self.vertices or b not in self.vertices:
                raise GogError(f"edge {eid!r} has an unknown endpoint")
            if not self._is_normal(me.twist, gog.base_vertex):
                raise GogError(f"edge {eid!r} twist is not a based group "
                               "element in normal form")
            near = self.vertices[a]
            self._check_subgroup(
                f"edge {eid!r}", me.stab, near.image,
                f"edge {eid!r} stabilizer is not inside its near vertex "
                "stabilizer")
            # The far image seen from a is twist·b: read off z, the path
            # from a's image to it, c_a^-1·twist·c_b for c_a, c_b the coset
            # reps of the images; seen from b it is twist^-1·a, read off z^-1.
            z = path_multiply(gog, path_invert(gog, near.image.coset_rep),
                              me.twist, self.vertices[b].image.coset_rep)
            if len(z.steps) > 1:
                raise GogError(f"edge {eid!r} does not map to an edge or a "
                               "point")
            far[eid, 0], far[eid, 1] = (
                (p.steps[0][1], p.steps[0][0]) if p.steps else None
                for p in (z, path_invert(gog, z)))
            ti = path_invert(gog, me.twist)
            for s in me.stab:
                if s not in near.stab:
                    raise GogError(f"edge {eid!r} stabilizer is not inside "
                                   "its near vertex stabilizer")
                if (path_multiply(gog, ti, s, me.twist)
                        not in self.vertices[b].stab):
                    raise GogError(f"edge {eid!r} stabilizer does not carry "
                                   "into its far vertex stabilizer")
        ends = [me.ends for me in self.edges.values()]
        if _spanning_forest(self.vertices, ends)[1] != 1:
            raise GogError("marked shape is not connected")

    def _is_normal(self, nf: NormalForm, end: str) -> bool:
        """Whether nf is a normal form from the base vertex to end."""
        gog = self.ambient
        try:
            return (isinstance(nf, NormalForm) and nf.start == gog.base_vertex
                    and path_normal_form(gog, *nf) == nf
                    and end_vertex(gog, nf) == end)
        except GogError:
            return False

    def _check_subgroup(self, where: str, stab: frozenset, at: TreeVertex,
                        outside: str) -> None:
        """Check that stab is a subgroup of the stabilizer of the tree
        vertex at; outside is the error for an entry not fixing at."""
        gog = self.ambient
        for s in stab:
            if not self._is_normal(s, gog.base_vertex):
                raise GogError(f"stabilizer entry at {where} is not a based "
                               "group element")
        _, idx = _table_indices(gog, at, stab, outside)
        if identity_nf(gog) not in stab:
            raise GogError(f"stabilizer at {where} is missing the identity")
        if len(subgroup_closure(gog.vertices[at.orbit], idx).elements) \
                != len(idx):
            raise GogError(f"stabilizer at {where} is not closed under "
                           "products")


def _near_name(marked: MarkedTree, edge: str, end: int) -> str:
    if edge not in marked.edges:
        raise GogError(f"unknown edge {edge!r} in fold directive")
    if end not in (0, 1):
        raise GogError("edge end must be 0 or 1")
    return marked.edges[edge].ends[end]


def _far(marked: MarkedTree, edge: str, end: int
         ) -> tuple[str, NormalForm]:
    """Far vertex name and the element placing its lift, seen from one end."""
    me = marked.edges[edge]
    if end == 0:
        return me.ends[1], me.twist
    return me.ends[0], path_invert(marked.ambient, me.twist)


def far_image(marked: MarkedTree, edge: str, end: int) -> TreeVertex:
    """The ambient image of the edge's far endpoint, seen from one end."""
    near = marked.vertices[marked.edges[edge].ends[end]].image
    d = marked._far_images[edge, end]
    return near if d is None else neighbor(marked.ambient, near, d[1], d[0])


def _stab_from(gog: GraphOfGroups, me: MarkedEdge, end: int) -> frozenset:
    """The edge's stabilizer as seen from its near vertex at the given end."""
    if end == 0:
        return me.stab
    return _conj_set(gog, path_invert(gog, me.twist), me.stab)


def _merge_vertex(gog: GraphOfGroups, vertices: dict, edges: dict,
                  far: dict, keep: str, gone: str, gamma: NormalForm) -> None:
    """Identify the lift of gone with gamma times the lift of keep, and
    re-twist the edges at gone.  y = c_k^-1 gamma^-1 c_g, from the images'
    coset reps, crosses no edge, and its tail moves the directions at gone."""
    kv, gv = vertices[keep], vertices[gone]
    gi = path_invert(gog, gamma)
    y = path_multiply(gog, path_invert(gog, kv.image.coset_rep), gi,
                      gv.image.coset_rep)
    if y.steps:
        raise GogError("fold witness does not match the marked images")
    stab = _closure(gog, kv.image, set(kv.stab) | _conj_set(gog, gi, gv.stab))
    vertices[keep] = MarkedVertex(kv.image, stab)
    del vertices[gone]
    for eid, me in list(edges.items()):
        a, b = me.ends
        if gone not in (a, b):
            continue
        twist = path_multiply(gog, gi, me.twist) if a == gone else me.twist
        edges[eid] = MarkedEdge(
            (keep if a == gone else a, keep if b == gone else b),
            path_multiply(gog, twist, gamma) if b == gone else twist,
            _conj_set(gog, gi, me.stab) if a == gone else me.stab)
        for end, v in enumerate(me.ends):
            if v == gone:
                far[eid, end] = act(gog, y.tail, far[eid, end])


def _apply_pair(marked: MarkedTree, d: FoldDirective) -> MarkedTree:
    gog = marked.ambient
    if d.edge == d.edge2:
        raise GogError("edges lie in the same orbit; identify an edge with "
                       "its translates by a stabilizer fold")
    v1 = _near_name(marked, d.edge, d.end)
    v2 = _near_name(marked, d.edge2, d.end2)
    if v1 != v2:
        raise GogError("pair fold needs a common endpoint")
    p1 = marked._far_images[d.edge, d.end]
    if p1 != marked._far_images[d.edge2, d.end2]:
        raise GogError("far endpoints have different images in the "
                       "ambient tree")
    if p1 is None:
        raise GogError("edge maps to a point; collapse it instead")
    far1, mu1 = _far(marked, d.edge, d.end)
    far2, mu2 = _far(marked, d.edge2, d.end2)
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    far_images = dict(marked._far_images)
    gamma = path_multiply(gog, path_invert(gog, mu2), mu1)
    if far1 == far2:
        mv = vertices[far1]
        vertices[far1] = MarkedVertex(
            mv.image, _closure(gog, mv.image, set(mv.stab) | {gamma}))
    elif far2 == v1 and far1 != v1:
        _merge_vertex(gog, vertices, edges, far_images, far2, far1,
                      path_invert(gog, gamma))
    else:
        _merge_vertex(gog, vertices, edges, far_images, far1, far2, gamma)
    merged = _closure(gog, vertices[v1].image,
                      set(_stab_from(gog, edges[d.edge], d.end))
                      | set(_stab_from(gog, edges[d.edge2], d.end2)))
    me = edges[d.edge]
    stab = merged if d.end == 0 else _conj_set(gog, me.twist, merged)
    edges[d.edge] = MarkedEdge(me.ends, me.twist, stab)
    del edges[d.edge2], far_images[d.edge2, 0], far_images[d.edge2, 1]
    return MarkedTree._built(gog, vertices, edges, far_images)


def _apply_stabilizer(marked: MarkedTree, d: FoldDirective) -> MarkedTree:
    gog = marked.ambient
    v = _near_name(marked, d.edge, d.end)
    if not d.elements:
        raise GogError("stabilizer fold needs at least one element")
    elems = [_nf(gog, w) for w in d.elements]
    sv = marked.vertices[v]
    if any(h not in sv.stab for h in elems):
        raise GogError("fold subgroup must lie in the marked vertex "
                       "stabilizer")
    pfar = marked._far_images[d.edge, d.end]
    _, idx = _table_indices(gog, sv.image, elems, _NOT_FIXED)
    if any(act(gog, x, pfar) != pfar for x in idx):
        raise GogError("fold does not respect the marking: an element "
                       "moves the image of the far endpoint")
    hgrp = _closure(gog, sv.image, elems)
    far, mu = _far(marked, d.edge, d.end)
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    fv = vertices[far]
    grown = _closure(gog, fv.image, set(fv.stab)
                     | _conj_set(gog, path_invert(gog, mu), hgrp))
    vertices[far] = MarkedVertex(fv.image, grown)
    newt = _closure(gog, sv.image,
                    set(_stab_from(gog, marked.edges[d.edge], d.end)) | hgrp)
    me = edges[d.edge]
    stab = newt if d.end == 0 else _conj_set(gog, me.twist, newt)
    edges[d.edge] = MarkedEdge(me.ends, me.twist, stab)
    return MarkedTree._built(gog, vertices, edges, marked._far_images)


def _apply_collapse(marked: MarkedTree, d: FoldDirective) -> MarkedTree:
    gog = marked.ambient
    a = _near_name(marked, d.edge, 0)
    if marked._far_images[d.edge, 0] is not None:
        raise GogError("edge does not map to a point")
    me = marked.edges[d.edge]
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    far_images = dict(marked._far_images)
    del edges[d.edge], far_images[d.edge, 0], far_images[d.edge, 1]
    if a == me.ends[1]:
        mv = vertices[a]
        vertices[a] = MarkedVertex(
            mv.image, _closure(gog, mv.image, set(mv.stab) | {me.twist}))
    else:
        _merge_vertex(gog, vertices, edges, far_images, a, me.ends[1],
                      path_invert(gog, me.twist))
    return MarkedTree._built(gog, vertices, edges, far_images)


def fold(marked: MarkedTree, d: FoldDirective) -> MarkedTree:
    """Apply one fold directive, returning a new marked tree."""
    if d.kind == "pair":
        return _apply_pair(marked, d)
    if d.kind == "stabilizer":
        return _apply_stabilizer(marked, d)
    if d.kind == "collapse":
        return _apply_collapse(marked, d)
    raise GogError(f"unknown fold kind {d.kind!r}")


# Pair folds identify edges in distinct orbits; since every marked
# stabilizer here is finite they always count as type2 and type1 is
# unreachable. Stabilizer folds identify an edge with translates of itself,
# staying inside one orbit: type3. Collapses report their own class.
_FOLD_CLASS = {"pair": "type2", "stabilizer": "type3",
               "collapse": "collapse"}


def classify_fold(marked: MarkedTree, d: FoldDirective) -> str:
    """Priority class of a directive, after checking that it is legal by
    applying it."""
    fold(marked, d)
    return _FOLD_CLASS[d.kind]


def _folds(marked: MarkedTree) -> Iterator[FoldDirective]:
    """Every applicable directive, lazily and in priority order:
    collapses by edge; pairs by vertex, then by (edge, end) position;
    stabilizer folds by edge, then end, with the least witness element.
    Far images are the directions read from the tree: None for an edge
    mapping to a point, and a stabilizer element acts by a table lookup."""
    gog = marked.ambient
    far = marked._far_images
    ends = [(eid, end, v) for eid in sorted(marked.edges)
            for end, v in enumerate(marked.edges[eid].ends)]
    ends_at: dict[str, list] = {}
    for eid, end, v in ends:
        ends_at.setdefault(v, []).append((eid, end))
        if end == 0 and far[eid, 0] is None:
            yield collapse_fold(eid)
    for v, items in sorted(ends_at.items()):
        for i, (e1, k1) in enumerate(items):
            p1 = far[e1, k1]
            if p1 is None:
                continue
            for e2, k2 in items[i + 1:]:
                if e1 != e2 and far[e2, k2] == p1:
                    yield pair_fold(e1, k1, e2, k2)
    for eid, end, v in ends:
        pfar = far[eid, end]
        if pfar is None:
            continue
        mv = marked.vertices[v]
        hs = sorted(mv.stab - _stab_from(gog, marked.edges[eid], end),
                    key=NormalForm.sort_key)
        idx = _table_indices(gog, mv.image, hs, _NOT_FIXED)[1] if hs else ()
        for h, x in zip(hs, idx):
            if act(gog, x, pfar) == pfar:
                yield stabilizer_fold(eid, end, (h,))
                break


def available_folds(marked: MarkedTree) -> dict:
    """All applicable directives, grouped by priority class.

    Stabilizer folds are reported one witness element per edge end; pair
    folds and collapses are listed exhaustively. Deterministic order.
    """
    out = {"collapses": [], "pairs": [], "stabilizers": []}
    for d in _folds(marked):
        out[d.kind + "s"].append(d)
    return out


def maximality_flags(marked: MarkedTree) -> dict[str, bool]:
    """Per edge: whether the recorded stabilizer already equals the full
    stabilizer of the image edge. Diagnostic only, never enforced."""
    gog, far = marked.ambient, marked._far_images
    return {eid: far[eid, 0] is not None
            and len(me.stab) == gog.edges[far[eid, 0][0].edge].group.order
            for eid, me in marked.edges.items()}


def is_terminal(marked: MarkedTree) -> bool:
    """Whether the marking presents the ambient quotient itself: orbits
    in bijection, full stabilizers, one edge per ambient edge."""
    gog = marked.ambient
    if (len(marked.vertices) != len(gog.vertices)
            or len(marked.edges) != len(gog.edges)):
        return False
    # With the counts equal, covering every orbit and every ambient edge
    # makes bijections; a full edge stabilizer needs an image edge.
    return ({mv.image.orbit: len(mv.stab) for mv in marked.vertices.values()}
            == {v: g.order for v, g in gog.vertices.items()}
            and all(maximality_flags(marked).values())
            and {marked._far_images[eid, 0][0].edge for eid in marked.edges}
            == set(gog.edges))


def _same_presentation(a: GraphOfGroups, b: GraphOfGroups) -> bool:
    return (sorted(a.vertices) == sorted(b.vertices)
            and sorted(a.edges) == sorted(b.edges)
            and all(a.vertices[v].order == b.vertices[v].order
                    for v in a.vertices)
            and all(a.edges[e].ends == b.edges[e].ends
                    and a.edges[e].group.order == b.edges[e].group.order
                    for e in a.edges))


def _diagnostic(marked: MarkedTree) -> str:
    gog = marked.ambient
    return (f"shape has {len(marked.vertices)} vertices and "
            f"{len(marked.edges)} edges against {len(gog.vertices)} and "
            f"{len(gog.edges)} in the target; image-stabilizer maximality "
            f"per edge: {maximality_flags(marked)}")


def fold_sequence(source: MarkedTree, target: GraphOfGroups,
                  max_steps: int = 50) -> list[tuple[FoldDirective,
                                                     MarkedTree]]:
    """Greedy fold run from a marked tree onto the ambient presentation.

    Collapses run first (edges mapping to points), then pair folds (each
    drops the edge-orbit count by one), then stabilizer folds (which grow
    stabilizers in place). Each returned directive is stamped with its
    class and paired with the tree after the step.
    """
    gog = source.ambient
    if target is not gog and not _same_presentation(target, gog):
        raise GogError("target must present the marking's ambient graph "
                       "of groups")
    steps: list[tuple[FoldDirective, MarkedTree]] = []
    cur = source
    while not is_terminal(cur):
        if len(steps) >= max_steps:
            raise StepLimitError(f"max_steps {max_steps} exceeded before "
                                 "reaching the target")
        pick = next(_folds(cur), None)
        if pick is None:
            raise GogError("map not foldable: no legal fold and the target "
                           "is not reached; " + _diagnostic(cur))
        cur = fold(cur, pick)
        steps.append((pick._replace(classification=_FOLD_CLASS[pick.kind]),
                      cur))
    return steps


def identity_marking(gog: GraphOfGroups) -> MarkedTree:
    """Mark the ambient presentation over itself: standard lifts, full
    stabilizers, canonical edge placements. Terminal by construction."""
    frames = {name: standard_frame(gog, name) for name in gog.vertices}
    vertices = {name: MarkedVertex(f.vertex, frozenset(f.stabilizer))
                for name, f in frames.items()}
    edges = {}
    for eid, e in gog.edges.items():
        a, b = e.ends
        cross = path_normal_form(
            gog, a, [(gog.vertices[a].identity, Traversal(eid, 0))],
            gog.vertices[b].identity)
        twist = path_multiply(gog, frames[a].vertex.coset_rep, cross,
                              path_invert(gog, frames[b].vertex.coset_rep))
        stab = frozenset(frames[a].stabilizer[x] for x in e.inj[0].mapping)
        edges[eid] = MarkedEdge((a, b), twist, stab)
    return MarkedTree(gog, vertices, edges)


def marked_rose_for_basis(gog: GraphOfGroups, words,
                          hub: str = "u") -> MarkedTree:
    """A marked wedge of subdivided circles realizing the given elements
    as loops, all stabilizers trivial, mapped by prefix placement.

    Each word contributes a circle with one edge per syllable; words that
    fix the base vertex cannot mark a circle and are rejected.
    """
    ident = identity_nf(gog)
    vertices = {hub: MarkedVertex(base_vertex(gog), frozenset([ident]))}
    edges = {}
    for i, w in enumerate(words):
        g = _nf(gog, w)
        if not g.steps:
            raise GogError("basis word fixes the base vertex; it cannot "
                           "mark a circle")
        k = len(g.steps)
        names = [hub] + [f"{hub}{i}_{j}" for j in range(1, k)]
        for j in range(1, k):
            far = gog.far(g.steps[j - 1][1])
            pref = NormalForm(g.start, g.steps[:j], gog.vertices[far].identity)
            vertices[names[j]] = MarkedVertex(vertex_from_path(gog, pref),
                                              frozenset([ident]))
        for j in range(k):
            a = names[j]
            b = names[j + 1] if j + 1 < k else hub
            twist = g if j == k - 1 else ident
            edges[f"c{i}_{j}"] = MarkedEdge((a, b), twist,
                                            frozenset([ident]))
    return MarkedTree(gog, vertices, edges)
