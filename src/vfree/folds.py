"""Equivariant edge folding of marked trees over a graph of groups.

A marked tree presents a simplicial tree with an action of the fundamental
group G of an ambient graph of groups, together with an equivariant map to
the ambient tree that sends edges to edges (or, transiently, to points).
The presentation keeps one lift per orbit: every shape vertex records its
stabilizer as an explicit finite set of based normal forms plus the image
vertex in the ambient tree, and every shape edge records a twist element
of G placing the far endpoint of its lift. Folds identify edges with equal
images, growing stabilizers by closure, and drive the presentation toward
the ambient quotient itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .bstree import (
    TreeVertex,
    base_vertex,
    distance,
    neighbor,
    stabilizer,
    standard_vertex,
    translate,
    vertex_from_path,
)
from .gogwords import (
    GogError,
    GraphOfGroups,
    NormalForm,
    Traversal,
    _spanning_forest,
    end_vertex,
    identity_nf,
    is_identity,
    normal_form,
    parse_word,
    path_invert,
    path_multiply,
    path_normal_form,
)

DEFAULT_CLOSURE_CAP = 1024


def _nf(gog: GraphOfGroups, w) -> NormalForm:
    """A marking input as a checked normal form: strings are parsed, and
    anything else is reduced and checked as a loop word."""
    if isinstance(w, str):
        return parse_word(gog, w)
    return normal_form(gog, w)


def _mul(gog: GraphOfGroups, *paths: NormalForm) -> NormalForm:
    out = paths[0]
    for p in paths[1:]:
        out = path_multiply(gog, out, p)
    return out


def _conj_set(gog: GraphOfGroups, c: NormalForm,
              elts: Iterable[NormalForm]) -> frozenset:
    """The set {c g c^-1 : g in elts}."""
    ci = path_invert(gog, c)
    return frozenset(_mul(gog, c, g, ci) for g in elts)


def nf_closure(gog: GraphOfGroups, elements: Iterable[NormalForm],
               cap: int = DEFAULT_CLOSURE_CAP) -> frozenset:
    """Subgroup closure of based group elements under normal-form products.

    The cap bounds the closure size; exceeding it means the generated
    subgroup has left the finite-stabilizer regime this engine covers.
    """
    found = {identity_nf(gog)}
    frontier = []
    for g in elements:
        for h in (g, path_invert(gog, g)):
            if h not in found:
                found.add(h)
                frontier.append(h)
    while frontier:
        g = frontier.pop()
        for h in list(found):
            for p in (_mul(gog, g, h), _mul(gog, h, g)):
                if p not in found:
                    found.add(p)
                    frontier.append(p)
        if len(found) > cap:
            raise GogError(
                f"infinite-or-large stabilizer: closure exceeded cap {cap}")
    return frozenset(found)


@dataclass(frozen=True)
class MarkedVertex:
    image: TreeVertex
    stab: frozenset


@dataclass(frozen=True)
class MarkedEdge:
    ends: tuple[str, str]
    twist: NormalForm
    stab: frozenset


@dataclass(frozen=True)
class FoldDirective:
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

    def validate(self) -> None:
        gog = self.ambient
        if not self.vertices:
            raise GogError("marked tree needs at least one vertex")
        ident = identity_nf(gog)
        for name, mv in self.vertices.items():
            for s in mv.stab:
                if not self._is_element(s):
                    raise GogError(f"stabilizer entry at vertex {name!r} is "
                                   "not a based group element")
                if translate(gog, s, mv.image) != mv.image:
                    raise GogError(
                        f"stabilizer entry at vertex {name!r} does not fix "
                        "its image")
            self._check_subgroup(f"vertex {name!r}", mv.stab, ident)
        for eid, me in self.edges.items():
            a, b = me.ends
            if a not in self.vertices or b not in self.vertices:
                raise GogError(f"edge {eid!r} has an unknown endpoint")
            if not self._is_element(me.twist):
                raise GogError(f"edge {eid!r} twist is not a based group "
                               "element")
            self._check_subgroup(f"edge {eid!r}", me.stab, ident)
            near = self.vertices[a]
            far_pt = translate(gog, me.twist, self.vertices[b].image)
            if distance(gog, near.image, far_pt) > 1:
                raise GogError(
                    f"edge {eid!r} does not map to an edge or a point")
            ti = path_invert(gog, me.twist)
            for s in me.stab:
                if s not in near.stab:
                    raise GogError(f"edge {eid!r} stabilizer is not inside "
                                   "its near vertex stabilizer")
                if _mul(gog, ti, s, me.twist) not in self.vertices[b].stab:
                    raise GogError(f"edge {eid!r} stabilizer does not carry "
                                   "into its far vertex stabilizer")
        ends = [me.ends for me in self.edges.values()]
        if _spanning_forest(self.vertices, ends)[1] != 1:
            raise GogError("marked shape is not connected")

    def _is_element(self, nf: NormalForm) -> bool:
        gog = self.ambient
        return (nf.start == gog.base_vertex
                and end_vertex(gog, nf) == gog.base_vertex)

    def _check_subgroup(self, where: str, stab: frozenset,
                        ident: NormalForm) -> None:
        gog = self.ambient
        if ident not in stab:
            raise GogError(f"stabilizer at {where} is missing the identity")
        for s in stab:
            if not self._is_element(s):
                raise GogError(f"stabilizer entry at {where} is not a based "
                               "group element")
        for x in stab:
            for y in stab:
                if _mul(gog, x, y) not in stab:
                    raise GogError(f"stabilizer at {where} is not closed "
                                   "under products")


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
    far, mu = _far(marked, edge, end)
    return translate(marked.ambient, mu, marked.vertices[far].image)


def _stab_from(gog: GraphOfGroups, me: MarkedEdge, end: int) -> frozenset:
    """The edge's stabilizer as seen from its near vertex at the given end."""
    if end == 0:
        return me.stab
    return _conj_set(gog, path_invert(gog, me.twist), me.stab)


def _merge_vertex(gog: GraphOfGroups, vertices: dict, edges: dict,
                  keep: str, gone: str, gamma: NormalForm, cap: int) -> None:
    """Identify the lift of gone with gamma times the lift of keep,
    renaming gone away and re-twisting its incident edges."""
    kv, gv = vertices[keep], vertices[gone]
    if translate(gog, gamma, kv.image) != gv.image:
        raise GogError("fold witness does not match the marked images")
    gi = path_invert(gog, gamma)
    stab = nf_closure(gog, set(kv.stab) | _conj_set(gog, gi, gv.stab), cap)
    vertices[keep] = MarkedVertex(kv.image, stab)
    del vertices[gone]
    for eid, me in list(edges.items()):
        a, b = me.ends
        twist, estab = me.twist, me.stab
        if a == gone and b == gone:
            twist = _mul(gog, gi, twist, gamma)
            estab = _conj_set(gog, gi, estab)
            a = b = keep
        elif a == gone:
            twist = _mul(gog, gi, twist)
            estab = _conj_set(gog, gi, estab)
            a = keep
        elif b == gone:
            twist = _mul(gog, twist, gamma)
            b = keep
        else:
            continue
        edges[eid] = MarkedEdge((a, b), twist, estab)


def _apply_pair(marked: MarkedTree, d: FoldDirective, cap: int) -> MarkedTree:
    gog = marked.ambient
    if d.edge == d.edge2:
        raise GogError("edges lie in the same orbit; identify an edge with "
                       "its translates by a stabilizer fold")
    v1 = _near_name(marked, d.edge, d.end)
    v2 = _near_name(marked, d.edge2, d.end2)
    if v1 != v2:
        raise GogError("pair fold needs a common endpoint")
    far1, mu1 = _far(marked, d.edge, d.end)
    far2, mu2 = _far(marked, d.edge2, d.end2)
    p1 = translate(gog, mu1, marked.vertices[far1].image)
    p2 = translate(gog, mu2, marked.vertices[far2].image)
    if p1 != p2:
        raise GogError("far endpoints have different images in the "
                       "ambient tree")
    if distance(gog, marked.vertices[v1].image, p1) != 1:
        raise GogError("edge maps to a point; collapse it instead")
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    if far1 == far2:
        gamma = _mul(gog, path_invert(gog, mu2), mu1)
        if not is_identity(gog, gamma):
            mv = vertices[far1]
            vertices[far1] = MarkedVertex(
                mv.image, nf_closure(gog, set(mv.stab) | {gamma}, cap))
    elif far2 == v1 and far1 != v1:
        gamma = _mul(gog, path_invert(gog, mu1), mu2)
        _merge_vertex(gog, vertices, edges, far2, far1, gamma, cap)
    else:
        gamma = _mul(gog, path_invert(gog, mu2), mu1)
        _merge_vertex(gog, vertices, edges, far1, far2, gamma, cap)
    merged = nf_closure(gog, set(_stab_from(gog, edges[d.edge], d.end))
                        | set(_stab_from(gog, edges[d.edge2], d.end2)), cap)
    me = edges[d.edge]
    stab = merged if d.end == 0 else _conj_set(gog, me.twist, merged)
    edges[d.edge] = MarkedEdge(me.ends, me.twist, stab)
    del edges[d.edge2]
    return MarkedTree(gog, vertices, edges)


def _apply_stabilizer(marked: MarkedTree, d: FoldDirective,
                      cap: int) -> MarkedTree:
    gog = marked.ambient
    v = _near_name(marked, d.edge, d.end)
    if not d.elements:
        raise GogError("stabilizer fold needs at least one element")
    elems = [_nf(gog, w) for w in d.elements]
    sv = marked.vertices[v]
    for h in elems:
        if h not in sv.stab:
            raise GogError("fold subgroup must lie in the marked vertex "
                           "stabilizer")
    far, mu = _far(marked, d.edge, d.end)
    pfar = translate(gog, mu, marked.vertices[far].image)
    for h in elems:
        if translate(gog, h, pfar) != pfar:
            raise GogError("fold does not respect the marking: an element "
                           "moves the image of the far endpoint")
    hgrp = nf_closure(gog, elems, cap)
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    fv = vertices[far]
    grown = nf_closure(gog, set(fv.stab)
                       | _conj_set(gog, path_invert(gog, mu), hgrp), cap)
    vertices[far] = MarkedVertex(fv.image, grown)
    newt = nf_closure(gog, set(_stab_from(gog, marked.edges[d.edge], d.end))
                      | hgrp, cap)
    me = edges[d.edge]
    stab = newt if d.end == 0 else _conj_set(gog, me.twist, newt)
    edges[d.edge] = MarkedEdge(me.ends, me.twist, stab)
    return MarkedTree(gog, vertices, edges)


def _apply_collapse(marked: MarkedTree, d: FoldDirective,
                    cap: int) -> MarkedTree:
    gog = marked.ambient
    if d.edge not in marked.edges:
        raise GogError(f"unknown edge {d.edge!r} in fold directive")
    me = marked.edges[d.edge]
    a, b = me.ends
    if (translate(gog, me.twist, marked.vertices[b].image)
            != marked.vertices[a].image):
        raise GogError("edge does not map to a point")
    vertices, edges = dict(marked.vertices), dict(marked.edges)
    del edges[d.edge]
    if a == b:
        if not is_identity(gog, me.twist):
            mv = vertices[a]
            vertices[a] = MarkedVertex(
                mv.image, nf_closure(gog, set(mv.stab) | {me.twist}, cap))
    else:
        _merge_vertex(gog, vertices, edges, a, b,
                      path_invert(gog, me.twist), cap)
    return MarkedTree(gog, vertices, edges)


def fold(marked: MarkedTree, d: FoldDirective,
         closure_cap: int = DEFAULT_CLOSURE_CAP) -> MarkedTree:
    """Apply one fold directive, returning a new marked tree."""
    if d.kind == "pair":
        return _apply_pair(marked, d, closure_cap)
    if d.kind == "stabilizer":
        return _apply_stabilizer(marked, d, closure_cap)
    if d.kind == "collapse":
        return _apply_collapse(marked, d, closure_cap)
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


def available_folds(marked: MarkedTree) -> dict:
    """All applicable directives, grouped by priority class.

    Stabilizer folds are reported one witness element per edge end; pair
    folds and collapses are listed exhaustively. Deterministic order.
    """
    gog = marked.ambient
    collapses, pairs, stabs = [], [], []
    for eid in sorted(marked.edges):
        home = marked.vertices[marked.edges[eid].ends[0]].image
        if far_image(marked, eid, 0) == home:
            collapses.append(collapse_fold(eid))
    ends_at: dict[str, list] = {}
    for eid in sorted(marked.edges):
        for end in (0, 1):
            ends_at.setdefault(marked.edges[eid].ends[end], []).append(
                (eid, end))
    for v in sorted(ends_at):
        home = marked.vertices[v].image
        items = ends_at[v]
        for i in range(len(items)):
            e1, k1 = items[i]
            p1 = far_image(marked, e1, k1)
            if distance(gog, home, p1) != 1:
                continue
            for j in range(i + 1, len(items)):
                e2, k2 = items[j]
                if e1 == e2:
                    continue
                if far_image(marked, e2, k2) == p1:
                    pairs.append(pair_fold(e1, k1, e2, k2))
    for eid in sorted(marked.edges):
        for end in (0, 1):
            v = marked.edges[eid].ends[end]
            pfar = far_image(marked, eid, end)
            if pfar == marked.vertices[v].image:
                continue
            cur = _stab_from(gog, marked.edges[eid], end)
            for h in sorted(marked.vertices[v].stab, key=NormalForm.sort_key):
                if h in cur:
                    continue
                if translate(gog, h, pfar) == pfar:
                    stabs.append(stabilizer_fold(eid, end, (h,)))
                    break
    return {"collapses": collapses, "pairs": pairs, "stabilizers": stabs}


def _crossing(gog: GraphOfGroups, u: TreeVertex,
              x: TreeVertex) -> Optional[Traversal]:
    """The quotient traversal realizing the tree edge from u to x."""
    return next((t for t in gog.incident(u.orbit) for r in gog.transversal(t)
                 if neighbor(gog, u, r, t) == x), None)


def maximality_flags(marked: MarkedTree) -> dict[str, bool]:
    """Per edge: whether the recorded stabilizer already equals the full
    stabilizer of the image edge. Diagnostic only, never enforced."""
    gog = marked.ambient
    out = {}
    for eid, me in marked.edges.items():
        u = marked.vertices[me.ends[0]].image
        x = far_image(marked, eid, 0)
        if u == x:
            out[eid] = False
            continue
        t = _crossing(gog, u, x)
        out[eid] = len(me.stab) == gog.edges[t.edge].group.order
    return out


def is_terminal(marked: MarkedTree) -> bool:
    """Whether the marking presents the ambient quotient itself: orbits
    in bijection, full stabilizers, one edge per ambient edge."""
    gog = marked.ambient
    if (len(marked.vertices) != len(gog.vertices)
            or len(marked.edges) != len(gog.edges)):
        return False
    orbits = {}
    for name, mv in marked.vertices.items():
        orbits.setdefault(mv.image.orbit, []).append(name)
    if sorted(orbits) != sorted(gog.vertices):
        return False
    for orb, names in orbits.items():
        if len(names) != 1:
            return False
        if len(marked.vertices[names[0]].stab) != gog.vertices[orb].order:
            return False
    seen = set()
    for eid, me in marked.edges.items():
        u = marked.vertices[me.ends[0]].image
        x = far_image(marked, eid, 0)
        if u == x:
            return False
        t = _crossing(gog, u, x)
        if t is None or t.edge in seen:
            return False
        seen.add(t.edge)
        if len(me.stab) != gog.edges[t.edge].group.order:
            return False
    return True


def _same_presentation(a: GraphOfGroups, b: GraphOfGroups) -> bool:
    if sorted(a.vertices) != sorted(b.vertices):
        return False
    if sorted(a.edges) != sorted(b.edges):
        return False
    if any(a.vertices[v].order != b.vertices[v].order for v in a.vertices):
        return False
    return all(a.edges[e].ends == b.edges[e].ends
               and a.edges[e].group.order == b.edges[e].group.order
               for e in a.edges)


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
    for _ in range(max_steps):
        if is_terminal(cur):
            return steps
        av = available_folds(cur)
        picks = av["collapses"] or av["pairs"] or av["stabilizers"]
        if not picks:
            raise GogError("map not foldable: no legal fold and the target "
                           "is not reached; " + _diagnostic(cur))
        cur = fold(cur, picks[0])
        steps.append((replace(picks[0],
                              classification=_FOLD_CLASS[picks[0].kind]), cur))
    if is_terminal(cur):
        return steps
    raise GogError(f"max_steps {max_steps} exceeded before reaching the "
                   "target")


def identity_marking(gog: GraphOfGroups) -> MarkedTree:
    """Mark the ambient presentation over itself: standard lifts, full
    stabilizers, canonical edge placements. Terminal by construction."""
    vertices = {}
    reps = {}
    stabs = {}
    for name in gog.vertices:
        sv = standard_vertex(gog, name)
        reps[name] = sv.coset_rep
        stabs[name] = stabilizer(gog, name)
        vertices[name] = MarkedVertex(sv, frozenset(stabs[name]))
    edges = {}
    for eid, e in gog.edges.items():
        a, b = e.ends
        cross = path_normal_form(
            gog, a, [(gog.vertices[a].identity, Traversal(eid, 0))],
            gog.vertices[b].identity)
        twist = _mul(gog, reps[a], cross, path_invert(gog, reps[b]))
        stab = frozenset(stabs[a][e.inj[0].mapping[c]]
                         for c in range(e.group.order))
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
