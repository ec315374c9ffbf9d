"""Deformation calculus on splittings with finite vertex groups.

Reducedness and redundancy predicates, elementary collapse and expansion
with explicit word transfer, slide moves (implemented literally as an
expansion followed by a collapse), the quotient degree-sum invariant,
isomorphism of graphs of groups, a small-groups catalog, and capped
enumeration of reduced splittings up to isomorphism.

The enumeration keeps the first candidate of each isomorphism class.
It visits each choice of shape and groups once up to relabeling, and
inside one choice a candidate's class is a dict lookup on a canonical
form, the least sequence of edge-end reads over all labelings of the
candidate over the catalog groups (see _canonical_form).  Equal forms
describe one graph, so the dedup is exact, and only the kept candidates
are built as graphs.  What the forms derive from one group, or from the
monomorphisms between two, is computed once and kept on those groups
(see the fingroup module docstring).

The expansion search keeps each graph it reaches unless are_gog_isomorphic
holds with one kept before; that test compares an invariant (_iso_key)
first, so most pairs are told apart without a search.  Moves and degree
sums are named tuples, equal to the plain tuples of their fields.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Sequence

from . import fingroup as fg
from .fingroup import FiniteGroup, GroupHom
from .gogwords import (Edge, GogError, GraphOfGroups, Traversal,
                       _spanning_forest)

ENUM_VERTEX_CAP = 3
ENUM_EDGE_CAP = 3
ENUM_ORDER_CAP = 12
ENUM_MULTI_EDGE_ORDER_CAP = 7
"""The largest max_order enumerate_reduced takes with two edges or more:
(3,3,7) takes about 5 s on a 2-vCPU Xeon VM, while (1,2,8) ran out of
3 GB of address space and (2,2,8) ran past 150 s (see FORMATS.md)."""
EXPANSION_DEPTH_CAP = 3
EXPANSION_ORDER_CAP = 64
"""The largest vertex group the expansion search takes: every subgroup
of each vertex group is listed, and (Z/2)^7 alone has 29,212.  64 is the
order of the largest builtin vertex group."""


class DeformationMove(NamedTuple):
    """A collapse, expansion, or slide, with every choice named explicitly.

    collapse: `edge` (a spanning-tree edge whose group fills one endpoint).
    expansion: `vertex` w, `subgroup` (element indices of H <= G_w), `moved`
    (the (edge id, end) pairs reattached to the new vertex), plus optional
    names for the new vertex and edge.
    slide: `edge`/`end` is the moving edge end, `over`/`over_end` the
    carrying edge end at the shared vertex.
    """

    kind: str
    edge: Optional[str] = None
    end: Optional[int] = None
    over: Optional[str] = None
    over_end: Optional[int] = None
    vertex: Optional[str] = None
    subgroup: Optional[tuple[int, ...]] = None
    moved: tuple = ()
    new_vertex: Optional[str] = None
    new_edge: Optional[str] = None


def collapse_move(edge: str) -> DeformationMove:
    return DeformationMove("collapse", edge=edge)


def expansion_move(vertex: str, subgroup: Sequence[int], moved: Sequence = (),
                   new_vertex: Optional[str] = None,
                   new_edge: Optional[str] = None) -> DeformationMove:
    return DeformationMove("expansion", vertex=vertex,
                           subgroup=tuple(sorted(set(subgroup))),
                           moved=tuple((e, d) for e, d in moved),
                           new_vertex=new_vertex, new_edge=new_edge)


def slide_move(edge: str, over: str, end: Optional[int] = None,
               over_end: Optional[int] = None) -> DeformationMove:
    return DeformationMove("slide", edge=edge, end=end, over=over,
                           over_end=over_end)


class DegreeSum(NamedTuple):
    """Sum of (degree - 2) over the quotient graph; constant under
    elementary deformations."""

    value: int
    terms: tuple[tuple[str, int], ...]


# -- local indices and predicates --------------------------------------------


def edge_index(gog: GraphOfGroups, eid: str, end: int) -> int:
    """[G_v : image of the edge group] at the given end."""
    return len(gog.transversal(Traversal(eid, end)))


def tree_degree(gog: GraphOfGroups, vid: str) -> int:
    """Degree, in the tree, of any vertex over vid: the sum of the edge
    indices over incident ends (loops count twice)."""
    return sum(len(gog.transversal(t)) for t in gog.incident(vid))


def quotient_degree(gog: GraphOfGroups, vid: str) -> int:
    return len(gog.incident(vid))


def degree_sum(gog: GraphOfGroups) -> DegreeSum:
    terms = tuple((v, quotient_degree(gog, v)) for v in sorted(gog.vertices))
    return DegreeSum(sum(d - 2 for _, d in terms), terms)


def collapsible_edges(gog: GraphOfGroups) -> list[str]:
    """Edges with distinct endpoints whose group fills one endpoint."""
    out = []
    for eid in sorted(gog.edges):
        e = gog.edges[eid]
        if e.ends[0] == e.ends[1]:
            continue
        if edge_index(gog, eid, 0) == 1 or edge_index(gog, eid, 1) == 1:
            out.append(eid)
    return out


def is_reduced(gog: GraphOfGroups) -> bool:
    return not collapsible_edges(gog)


def is_non_redundant(gog: GraphOfGroups) -> bool:
    """No tree vertex of degree 2."""
    return all(tree_degree(gog, v) != 2 for v in gog.vertices)


def is_minimal(gog: GraphOfGroups) -> bool:
    """No dangling vertex: a quotient leaf whose single incident edge has
    index 1 spans an invariant subtree and is forbidden."""
    for vid in gog.vertices:
        inc = gog.incident(vid)
        if len(inc) == 1 and len(gog.transversal(inc[0])) == 1 \
                and len(gog.vertices) > 1:
            return False
    return True


# -- elementary moves ---------------------------------------------------------


def _fresh_name(taken, stem: str) -> str:
    if stem not in taken:
        return stem
    k = 0
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def _hom_section(hom: GroupHom) -> dict[int, int]:
    """Inverse of an injective hom, defined on its image."""
    return {hom(c): c for c in range(hom.source.order)}


def _apply_collapse(gog: GraphOfGroups, move: DeformationMove):
    eid = move.edge
    if eid not in gog.edges:
        raise GogError(f"unknown edge {eid!r}")
    e = gog.edges[eid]
    if e.ends[0] == e.ends[1]:
        raise GogError("collapse requires distinct endpoints")
    if eid not in gog.spanning_tree:
        raise GogError("collapse of a non-tree edge needs a different "
                       "spanning tree; re-root the graph first")
    if edge_index(gog, eid, 1) == 1:
        gone, kept = 1, 0
    elif edge_index(gog, eid, 0) == 1:
        gone, kept = 0, 1
    else:
        raise GogError("not collapsible: the edge group image is proper "
                       "at both endpoints")
    v, w = e.ends[gone], e.ends[kept]
    grp_v, grp_w = gog.vertices[v], gog.vertices[w]
    section = _hom_section(e.inj[gone])
    phi = GroupHom(grp_v, grp_w,
                   tuple(e.inj[kept](section[g]) for g in range(grp_v.order)))

    new_edges = []
    for fid in gog.edges:
        if fid == eid:
            continue
        f = gog.edges[fid]
        if v not in f.ends:
            new_edges.append(f)
            continue
        ends = tuple(w if x == v else x for x in f.ends)
        inj = tuple(phi.compose(f.inj[k]) if f.ends[k] == v else f.inj[k]
                    for k in (0, 1))
        new_edges.append(Edge(fid, f.group, ends, inj))

    vertices = [(vid, grp) for vid, grp in gog.vertices.items() if vid != v]
    base = w if gog.base_vertex == v else gog.base_vertex
    tree = gog.spanning_tree - {eid}
    result = GraphOfGroups._built(vertices, new_edges, base, tree)

    word_map = {}
    for vid in gog.vertices:
        grp = gog.vertices[vid]
        for name, idx in grp.generators.items():
            if idx == grp.identity:
                continue
            word_map[name] = fg.generator_word(grp_w, phi(idx)) \
                if vid == v else name
    for fid in gog.edges:
        if fid != eid and fid not in gog.spanning_tree:
            word_map[fid] = fid
    return result, word_map


def _apply_expansion(gog: GraphOfGroups, move: DeformationMove):
    w = move.vertex
    if w not in gog.vertices:
        raise GogError(f"unknown vertex {w!r}")
    grp_w = gog.vertices[w]
    elements = tuple(sorted(set(move.subgroup or ())))
    if not elements:
        raise GogError("expansion needs a nonempty subgroup")
    if set(fg.subgroup_closure(grp_w, elements).elements) != set(elements):
        raise GogError("expansion subgroup is not closed")
    incident_ends = {(t.edge, t.dir) for t in gog.incident(w)}
    for eid, d in move.moved:
        if (eid, d) not in incident_ends:
            raise GogError(f"moved end ({eid!r}, {d}) is not attached "
                           f"to {w!r}")
        if not set(gog.edges[eid].inj[d].mapping) <= set(elements):
            raise GogError(f"moved end ({eid!r}, {d}) does not map into "
                           "the expansion subgroup")

    taken = set(gog.vertices) | set(gog.edges)
    x = move.new_vertex or _fresh_name(taken, w + "'")
    if x in taken:
        raise GogError(f"new vertex name {x!r} already in use")
    taken.add(x)
    new_eid = move.new_edge or _fresh_name(taken, "f")
    if new_eid in taken:
        raise GogError(f"new edge name {new_eid!r} already in use")

    local, embed = fg.Subgroup(grp_w, elements).as_group()
    back = {parent: k for k, parent in embed.items()}
    include = GroupHom(local, grp_w,
                       tuple(embed[k] for k in range(local.order)))

    moved = set(move.moved)
    new_edges = []
    for fid, f in gog.edges.items():
        pulls = [k for k in (0, 1) if (fid, k) in moved]
        if not pulls:
            new_edges.append(f)
            continue
        ends = tuple(x if k in pulls else f.ends[k] for k in (0, 1))
        inj = tuple(GroupHom(f.group, local,
                             tuple(back[g] for g in f.inj[k].mapping))
                    if k in pulls else f.inj[k] for k in (0, 1))
        new_edges.append(Edge(fid, f.group, ends, inj))
    new_edges.append(Edge(new_eid, local, (w, x),
                          (include, GroupHom.identity(local))))

    vertices = list(gog.vertices.items()) + [(x, local)]
    tree = set(gog.spanning_tree) | {new_eid}
    result = GraphOfGroups._built(vertices, new_edges, gog.base_vertex, tree)
    if not is_minimal(result):
        raise GogError("expansion creates a dangling vertex "
                       "(non-minimal splitting)")

    word_map = {}
    for vid in gog.vertices:
        grp = gog.vertices[vid]
        for name, idx in grp.generators.items():
            if idx != grp.identity:
                word_map[name] = name
    for fid in gog.edges:
        if fid not in gog.spanning_tree:
            word_map[fid] = fid
    return result, word_map


def _slide_ends(gog: GraphOfGroups, move: DeformationMove):
    f, e = gog.edges[move.edge], gog.edges[move.over]
    pairs = []
    for i in (0, 1) if move.end is None else (move.end,):
        for j in (0, 1) if move.over_end is None else (move.over_end,):
            if f.ends[i] != e.ends[j]:
                continue
            if set(f.inj[i].mapping) <= set(e.inj[j].mapping):
                pairs.append((i, j))
    if not pairs:
        raise GogError("no slidable end pair: the edges must share a vertex "
                       "with the moving image inside the carrying image")
    if len(set(pairs)) > 1 and (move.end is None or move.over_end is None):
        raise GogError("ambiguous slide; specify end and over_end")
    return pairs[0]


def _apply_slide(gog: GraphOfGroups, move: DeformationMove):
    for eid in (move.edge, move.over):
        if eid not in gog.edges:
            raise GogError(f"unknown edge {eid!r}")
    if move.edge == move.over:
        raise GogError("cannot slide an edge over itself")
    if move.over not in gog.spanning_tree:
        raise GogError("slides are supported over spanning-tree edges only")
    i, j = _slide_ends(gog, move)
    e = gog.edges[move.over]
    shared = e.ends[j]
    carrier = tuple(sorted(set(e.inj[j].mapping)))
    step = expansion_move(shared, carrier,
                          moved=[(move.over, j), (move.edge, i)])
    expanded, _ = _apply_expansion(gog, step)
    try:
        return _apply_collapse(expanded, collapse_move(move.over))
    except GogError as err:
        raise GogError(f"slide failed at the collapse stage: {err}") from err


def apply_move(gog: GraphOfGroups, move: DeformationMove) -> GraphOfGroups:
    """Perform the move; the resulting graph of groups presents the same
    group. The induced identification of fundamental groups is available
    from move_word_map."""
    return _dispatch(gog, move)[0]


def move_word_map(gog: GraphOfGroups, move: DeformationMove) -> dict[str, str]:
    """Generator-image dictionary of the isomorphism induced by the move:
    each letter of the source graph is sent to a word over the result."""
    return _dispatch(gog, move)[1]


def _dispatch(gog: GraphOfGroups, move: DeformationMove):
    if move.kind == "collapse":
        return _apply_collapse(gog, move)
    if move.kind == "expansion":
        return _apply_expansion(gog, move)
    if move.kind == "slide":
        return _apply_slide(gog, move)
    raise GogError(f"unknown move kind {move.kind!r}")


# -- isomorphism of graphs of groups ------------------------------------------


def _edge_compatible(e1: Edge, e2: Edge, alphas, flip: bool) -> bool:
    """Does some edge-group isomorphism commute with the injections up to
    conjugation at each end?  The α-images of e1's injections are read
    once, and each conjugation is a row of the target's table."""
    if e1.group.order != e2.group.order:
        return False
    ends2 = (e2.inj[1], e2.inj[0]) if flip else e2.inj
    img0 = [alphas[0].mapping[y] for y in e1.inj[0].mapping]
    img1 = [alphas[1].mapping[y] for y in e1.inj[1].mapping]
    im0 = set(ends2[0].mapping)
    sec0 = _hom_section(ends2[0])
    map1 = ends2[1].mapping
    conjugates1 = None
    for row0 in ends2[0].target.conjugation_rows():
        twisted = [row0[y] for y in img0]
        if set(twisted) != im0:
            continue
        if conjugates1 is None:
            conjugates1 = {tuple([row1[y] for y in img1])
                           for row1 in ends2[1].target.conjugation_rows()}
        if tuple([map1[sec0[y]] for y in twisted]) in conjugates1:
            return True
    return False


def _element_stats(grp: FiniteGroup) -> tuple:
    """(stat of each element, profile) of grp: an element's stat is its
    (order, conjugacy-class size), the profile the sorted stats.  Kept in
    grp._facts."""
    facts = grp._facts
    if "stats" not in facts:
        sizes = [len(set(col)) for col in zip(*grp.conjugation_rows())]
        stats = tuple(zip(grp.element_orders(), sizes))
        facts["stats"] = (stats, tuple(sorted(stats)))
    return facts["stats"]


def _iso_key(gog: GraphOfGroups) -> tuple:
    """(sorted vertex-group profiles, sorted edge keys) of a graph, an
    isomorphism invariant.

    An edge key is the least, over both orientations, of (profile at one
    end, profile at the other, sorted pairs of the stats of inj_0(c) and
    inj_1(c) over the edge group).  An isomorphism carries each edge to
    one whose injections agree with its own through one edge-group
    bijection, up to vertex-group isomorphisms and conjugations, and
    those keep an element's order and class size: isomorphic graphs
    share the key.  The key fixes the vertex count and orders and the
    edge count and orders.
    """
    edge_keys = []
    for e in gog.edges.values():
        (sa, pa), (sb, pb) = (_element_stats(gog.vertices[v])
                              for v in e.ends)
        ca = [sa[y] for y in e.inj[0].mapping]
        cb = [sb[y] for y in e.inj[1].mapping]
        edge_keys.append(min((pa, pb, tuple(sorted(zip(ca, cb)))),
                             (pb, pa, tuple(sorted(zip(cb, ca))))))
    profiles = sorted(_element_stats(g)[1] for g in gog.vertices.values())
    return tuple(profiles), tuple(sorted(edge_keys))


def are_gog_isomorphic(g1: GraphOfGroups, g2: GraphOfGroups) -> bool:
    """Isomorphism of graphs of groups: a graph isomorphism together with
    vertex and edge group isomorphisms commuting with the injections up to
    conjugation in the target vertex groups.  Graphs with different
    _iso_key are told apart by the key alone."""
    if _iso_key(g1) != _iso_key(g2):
        return False
    v1, v2 = sorted(g1.vertices), sorted(g2.vertices)
    if not g1.edges:
        # A connected graph without edges is one vertex.
        return next(fg.isomorphisms_iter(g1.vertices[v1[0]],
                                         g2.vertices[v2[0]]), None) is not None

    edges = [g1.edges[eid] for eid in sorted(g1.edges)]
    for perm in itertools.permutations(v2):
        sigma = dict(zip(v1, perm))
        if any(_element_stats(g1.vertices[v])[1]
               != _element_stats(g2.vertices[sigma[v]])[1]
               or quotient_degree(g1, v) != quotient_degree(g2, sigma[v])
               for v in v1):
            continue
        if _match(g1, g2, sigma, {}, edges, tuple(sorted(g2.edges))):
            return True
    return False


def _match(g1, g2, sigma, alpha, edges, free) -> bool:
    """Can edges go one to one onto the g2 edges named in free, over sigma
    and vertex-group isomorphisms extending alpha?  A vertex's isomorphism
    is chosen when its first edge needs it."""
    if not edges:
        return True
    e1 = edges[0]
    for v in e1.ends:
        if v not in alpha:
            src, tgt = g1.vertices[v], g2.vertices[sigma[v]]
            isos = src.automorphisms() if src is tgt \
                else fg.isomorphisms_iter(src, tgt)
            return any(_match(g1, g2, sigma, {**alpha, v: iso}, edges, free)
                       for iso in isos)
    ends = tuple(sigma[x] for x in e1.ends)
    a = (alpha[e1.ends[0]], alpha[e1.ends[1]])
    for eid in free:
        e2 = g2.edges[eid]
        for flip in (False, True):
            if ends == (e2.ends[::-1] if flip else e2.ends) \
                    and _edge_compatible(e1, e2, a, flip) \
                    and _match(g1, g2, sigma, alpha, edges[1:],
                               tuple(f for f in free if f != eid)):
                return True
    return False


# -- small groups and enumeration ---------------------------------------------


def _dihedral(n: int) -> FiniteGroup:
    rot = fg.build_cyclic(n, "r")
    flip = fg.build_cyclic(2, "f")
    return fg.build_semidirect(rot, flip,
                               {"f": tuple((-i) % n for i in range(n))})


def small_groups(max_order: int) -> list[FiniteGroup]:
    """All groups of order <= max_order (max 12) up to isomorphism: the
    first groups of one catalog, built once, so their tables persist."""
    if max_order > ENUM_ORDER_CAP:
        raise GogError(f"small-groups catalog capped at order {ENUM_ORDER_CAP}")
    return [grp for grp in _catalog() if grp.order <= max_order]


@functools.cache
def _catalog() -> tuple[FiniteGroup, ...]:
    groups: list[FiniteGroup] = []
    for n in range(1, ENUM_ORDER_CAP + 1):
        groups.append(fg.build_cyclic(n))
        if n == 4:
            groups.append(fg.build_boolean_vectors(2))
        if n == 6:
            groups.append(_dihedral(3))
        if n == 8:
            groups.append(fg.build_direct_product(fg.build_cyclic(4, "a"),
                                                  fg.build_cyclic(2, "b")))
            groups.append(fg.build_boolean_vectors(3))
            groups.append(_dihedral(4))
            groups.append(fg.build_dicyclic(2))
        if n == 9:
            groups.append(fg.build_direct_product(fg.build_cyclic(3, "a"),
                                                  fg.build_cyclic(3, "b")))
        if n == 10:
            groups.append(_dihedral(5))
        if n == 12:
            groups.append(fg.build_direct_product(fg.build_cyclic(6, "a"),
                                                  fg.build_cyclic(2, "b")))
            groups.append(_dihedral(6))
            groups.append(fg.group_from_permutations(
                {"p": (1, 2, 0, 3), "q": (1, 0, 3, 2)}))
            groups.append(fg.build_dicyclic(3))
    return tuple(groups)


def _candidate_graph(shape, vgroups, egroups, monos) -> GraphOfGroups:
    vertices = [(f"v{k}", grp) for k, grp in enumerate(vgroups)]
    edges = [Edge(f"e{k}", egrp, (f"v{i}", f"v{j}"), (mi, mj))
             for k, ((i, j), egrp, (mi, mj))
             in enumerate(zip(shape, egroups, monos))]
    return GraphOfGroups._built(vertices, edges, "v0", _shape_tree(shape))


def _check_range(name: str, value: int, low: int, high: int,
                 where: str = "") -> None:
    """Refuse a value outside low..high, naming the argument; high is the
    argument's cap, and where, if given, says when that cap holds."""
    if value > high:
        raise GogError(f"{name} is {value}, capped at {high}{where} "
                       f"(allowed {low}..{high})")
    if value < low:
        raise GogError(f"{name} is {value}, below {low} "
                       f"(allowed {low}..{high})")


def enumerate_reduced(vertex_count: int, edge_count: int, max_order: int,
                      vertex_groups: Optional[Sequence[FiniteGroup]] = None,
                      edge_groups: Optional[Sequence[FiniteGroup]] = None
                      ) -> list[GraphOfGroups]:
    """All reduced minimal splittings with the given counts, up to
    isomorphism of graphs of groups.

    Optional vertex_groups / edge_groups pin the group multisets instead
    of drawing them from the small-groups catalog.  A pinned group may
    not have order above max_order, so every group has an isomorphic
    catalog group to be read through.  With two edges or more, max_order
    may not exceed ENUM_MULTI_EDGE_ORDER_CAP.

    The output is the first candidate of each class in the stable sort
    of all candidates by _candidate_key, in listing order: shape, vertex
    groups, edge groups, then injections.

    Each edge takes its injections (a, b) from _orbit_reps only.  That is
    exact: if a' = ad(g)∘a∘β with β in Aut of the edge group, (a', b') is
    isomorphic to (a, b'∘β⁻¹), earlier in the a-major product order, and
    conjugating b' is an isomorphism too; so a group choice (shape,
    vertex groups, edge groups) lists, at or before its first candidate
    of each class, a candidate of that class.

    Group choices are visited once each up to relabeling their vertices
    (_group_choices).  That is exact: a relabeled choice realizes the
    same classes with the same _candidate_key, so the first candidate of
    each class lies in the first choice of its orbit, the visited one.
    - Only canonical shapes are walked (_canonical_shapes), the least
      relabeling of each connected shape.  Listing order reaches it
      before the other shapes of its class, and a choice on one of those
      relabels onto a choice on it, listed earlier.
    - An edge takes only groups of order below both of its ends, a
      loop's up to its vertex's, drawn from the catalog or pinned alike.
      A non-loop edge group of an end's order has index 1 there whatever
      the injections, so the edge is collapsible.  When no edge is,
      every candidate is reduced, and minimal too: a dangling vertex
      needs a non-loop edge of index 1.
    - A relabeling carrying one choice on a shape onto another on the
      same shape maps the shape onto itself.  So inside one shape the
      orbits are those of its automorphisms, and a choice is visited
      when its _choice_signature, the least image over them, is new.

    Classes of two visited choices differ, so _canonical_form, a
    complete invariant, is compared only inside one choice, keeping the
    first candidate of each form; a choice with one candidate reads no
    form.  What the signature, the forms and the kept graphs derive from
    the groups is kept on them (see the fingroup module docstring), so a
    repeated query lists, reads and builds without searching or checking
    any group again.
    """
    p, q, r = vertex_count, edge_count, max_order
    _check_range("vertex_count", p, 1, ENUM_VERTEX_CAP)
    _check_range("edge_count", q, 0, ENUM_EDGE_CAP)
    _check_range("max_order", r, 1, ENUM_ORDER_CAP)
    if q >= 2:
        _check_range("max_order", r, 1, ENUM_MULTI_EDGE_ORDER_CAP,
                     f" with edge_count {q}")
    catalog = small_groups(r) if None in (vertex_groups, edge_groups) else []
    if vertex_groups is not None and len(vertex_groups) != p:
        raise GogError("vertex_groups must list one group per vertex")
    if edge_groups is not None and len(edge_groups) != q:
        raise GogError("edge_groups must list one group per edge")
    for name, pinned in (("vertex_groups", vertex_groups),
                         ("edge_groups", edge_groups)):
        for k, grp in enumerate(pinned or ()):
            if grp.order > r:
                raise GogError(f"{name}[{k}] has order {grp.order}, above "
                               f"max_order {r}")

    found = []
    for choice in _group_choices(p, q, catalog, vertex_groups, edge_groups):
        shape, vgroups, egroups = choice
        mono_pools = [[(a, b) for a in _orbit_reps(egrp, vgroups[i], 0)
                       for b in _orbit_reps(egrp, vgroups[j], 1)]
                      for (i, j), egrp in zip(shape, egroups)]
        if not all(mono_pools):
            continue
        key = _candidate_key(shape, vgroups, egroups)
        monos = list(itertools.product(*mono_pools))
        if len(monos) > 1:
            firsts = {}
            for m in monos:
                firsts.setdefault(_canonical_form(*choice, m), m)
            monos = firsts.values()
        found.extend((key, choice + (m,)) for m in monos)

    found.sort(key=lambda cand: cand[0])
    return [_candidate_graph(*cand) for _, cand in found]


def _candidate_key(shape, vgroups, egroups):
    """Sorted vertex orders, sorted (edge order, sorted end orders) and
    sorted quotient degrees (a loop counts twice) of a candidate."""
    verts = sorted(g.order for g in vgroups)
    edges = sorted((c.order,) + tuple(sorted((vgroups[i].order,
                                              vgroups[j].order)))
                   for (i, j), c in zip(shape, egroups))
    degs = sorted(sum(ends.count(k) for ends in shape)
                  for k in range(len(vgroups)))
    return (verts, edges, degs)


def _group_choices(p, q, catalog, vertex_groups, edge_groups):
    """Each group choice (shape, vertex groups, edge groups) with no
    collapsible edge, once up to relabeling its vertices, in listing
    order: canonical shape, vertex groups, edge groups.  Each edge
    group's order stays below its cap, the lesser order of its ends,
    plus one on a loop."""
    seen = set()
    for shape, automorphisms in _canonical_shapes(p, q):
        if vertex_groups is None:
            vertex_pools = itertools.product(catalog, repeat=p)
        else:
            vertex_pools = _arrangements(vertex_groups)
        for vgroups in vertex_pools:
            caps = [min(vgroups[i].order, vgroups[j].order) + (i == j)
                    for i, j in shape]
            if edge_groups is None:
                edge_pools = itertools.product(
                    *[[c for c in catalog if c.order < cap] for cap in caps])
            else:
                edge_pools = (egroups for egroups in _arrangements(edge_groups)
                              if all(c.order < cap
                                     for c, cap in zip(egroups, caps)))
            for egroups in edge_pools:
                signature = _choice_signature(automorphisms, vgroups,
                                              egroups)
                if signature not in seen:
                    seen.add(signature)
                    yield shape, vgroups, egroups


# -- facts kept on the groups they describe -----------------------------------
#
# Each fact below depends only on one group, or on the monomorphisms
# between two, and is kept as the fingroup module docstring says.


def _class(grp: FiniteGroup) -> tuple:
    """(class id, Iso(grp, R), Iso(R, grp), Inn(R)) as mapping tuples,
    Iso(R, grp) keyed to their _gather, for R the catalog group
    isomorphic to grp (grp itself if it is one) and the class id R's
    place in the catalog.  The catalog holds every group of order up to
    ENUM_ORDER_CAP; enumerate_reduced refuses larger groups."""
    facts = grp._facts
    if "class" not in facts:
        catalog = _catalog()
        if grp in catalog:
            k, phi = catalog.index(grp), GroupHom.identity(grp)
        else:
            k, phi = next((k, phi) for k, rep in enumerate(catalog)
                          if rep.order == grp.order
                          for phi in itertools.islice(
                              fg.isomorphisms_iter(grp, rep), 1))
        rep = catalog[k]
        to_rep = [fg._gather(phi.mapping)(alpha.mapping)
                  for alpha in rep.automorphisms()]
        from_rep = {g: fg._gather(g) for g in (
            tuple(sorted(range(grp.order), key=m.__getitem__))
            for m in to_rep)}
        inner = tuple(set(rep.conjugation_rows()))
        facts["class"] = (k, to_rep, from_rep, inner)
    return facts["class"]


class _MonoFacts:
    """What the enumeration derives from the monomorphisms c → x: the
    orbit representatives at ends 0 and 1 (None until first asked for),
    the least lead of each image subgroup, the (lead, moves) of each
    mapping and the reads of each end state (see _canonical_form)."""

    __slots__ = ("reps", "least", "leads", "reads")

    def __init__(self):
        self.reps: Optional[tuple[list[GroupHom], list[GroupHom]]] = None
        self.least: dict[frozenset, tuple] = {}
        self.leads: dict[tuple, tuple] = {}
        self.reads: dict[tuple, tuple] = {}


def _mono_facts(c: FiniteGroup, x: FiniteGroup) -> _MonoFacts:
    """The facts of the monomorphisms c → x, kept on x, or on c when x is
    a catalog group (see the fingroup module docstring)."""
    facts = (c if _catalog()[_class(x)[0]] is x else x)._facts
    if (c, x) not in facts:
        facts[c, x] = _MonoFacts()
    return facts[c, x]


def _orbit_reps(c: FiniteGroup, x: FiniteGroup, end: int) -> list[GroupHom]:
    """The first monomorphism c → x with each conjugacy class of images:
    image subgroups at end 0, image tuples (inner-automorphism orbits) at
    end 1.  Both lists come from one all_monomorphisms search."""
    facts = _mono_facts(c, x)
    if facts.reps is None:
        conj, reps = x.conjugation_rows(), ({}, {})
        for m in fg.all_monomorphisms(c, x):
            for image, end_reps in zip((frozenset, tuple), reps):
                orbit = frozenset(image([row[y] for y in m.mapping])
                                  for row in conj)
                end_reps.setdefault(orbit, m)
        facts.reps = tuple(list(end_reps.values()) for end_reps in reps)
    return facts.reps[end]


def _lead(m: GroupHom) -> tuple:
    """(L, the (α, γ's _gather) with α∘m∘γ = L), L the least α∘m∘γ over
    α ∈ Iso(X, R_X) and γ ∈ Iso(R_C, C).

    L depends only on m's image: a mapping m' with the same image is m∘β
    for some β ∈ Aut(C), and β∘γ runs over Iso(R_C, C) as γ does.  So L
    is kept per image subgroup, and only the moves are found per
    mapping."""
    facts = _mono_facts(m.source, m.target)
    if m.mapping not in facts.leads:
        to_rep, gammas = _class(m.target)[1], _class(m.source)[2]
        key = frozenset(m.mapping)
        if key not in facts.least:
            facts.least[key] = min(
                min(map(fg._gather(gamma(m.mapping)), to_rep))
                for gamma in gammas.values())
        lead = facts.least[key]
        image, moves, get = set(lead), [], fg._gather(m.mapping)
        for alpha in to_rep:
            moved = get(alpha)
            if set(moved) == image:
                moves.append((alpha, gammas[tuple(map(moved.index, lead))]))
        facts.leads[m.mapping] = (lead, moves)
    return facts.leads[m.mapping]


def _read(m: GroupHom, y, xs, near, here) -> tuple:
    """(least image, [(α∘n for n in near, [(α∘here or None, γ's
    _gather)] over the γ reaching it with those α)]) of the end m.
    xs is None on an edge's first end, where γ is free, else the
    pending m∘γ or α∘m∘γ.  y is α∘m at an old vertex.  At a new one
    near maps its other ends, here the edge's other end if there."""
    if near is None:
        gammas = _class(m.source)[2].values()
        moved = [(x, None) for x in xs] if xs is not None else [
            (gamma(y), gamma) for gamma in gammas]
        rows = _class(m.target)[3]
        reads = [(min(map(fg._gather(x), rows)), g) for x, g in moved]
        low = min(image for image, _ in reads)
        return low, [((), [(None, g) for image, g in reads
                           if image == low and g])]
    if xs is None:
        low, moves = _lead(m)
    else:
        to_rep = _class(m.target)[1]
        images = [list(map(fg._gather(x), to_rep)) for x in xs]
        low = min(map(min, images))
        moves = [(alpha, None) for row in images
                 for alpha, image in zip(to_rep, row) if image == low]
    gets = [fg._gather(n) for n in near]
    own = fg._gather(here) if here else lambda alpha: None
    groups: dict[tuple, dict] = {}
    for alpha, g in moves:
        groups.setdefault(tuple([get(alpha) for get in gets]),
                          {})[own(alpha), g] = None
    return low, [(vals, [pair for pair in pairs if pair[1]])
                 for vals, pairs in groups.items()]


@functools.cache
def _shape_ends(shape) -> tuple:
    """(the vertex of each end, edge by edge, and for each end the other
    ends at its vertex outside its own edge) of a shape."""
    at = [v for edge in shape for v in edge]
    return at, [tuple(u for u, w in enumerate(at) if w == v and u | 1 != t | 1)
                for t, v in enumerate(at)]


@functools.cache
def _shape_tree(shape) -> tuple:
    """The edge ids of a connected shape's spanning tree, first come
    first kept."""
    nodes = {v for edge in shape for v in edge}
    return tuple(f"e{k}" for k in _spanning_forest(nodes, shape)[0])


@functools.cache
def _canonical_shapes(p: int, q: int) -> tuple:
    """(shape, automorphisms) for the connected multigraph shapes with p
    vertices and q edges, one per isomorphism class: the least of its
    relabelings, as a sorted tuple of endpoint pairs (i, j) with i <= j.
    They come in listing order, the order of combinations of the sorted
    pairs, which reaches each class at its least shape first.  An
    automorphism, a relabeling mapping the shape onto itself, is given
    as (the relabeled (min, max) ends of each edge, edge by edge, the old
    vertex at each new label)."""
    slots = [(i, j) for i in range(p) for j in range(i, p)]
    found = []
    for shape in itertools.combinations_with_replacement(slots, q):
        if _spanning_forest(range(p), shape)[1] != 1:
            continue
        relabeled = [(tuple([tuple(sorted((new[i], new[j])))
                             for i, j in shape]), new)
                     for new in itertools.permutations(range(p))]
        if all(shape <= tuple(sorted(ends)) for ends, _ in relabeled):
            found.append((shape, tuple(
                (ends, tuple(sorted(range(p), key=new.__getitem__)))
                for ends, new in relabeled if tuple(sorted(ends)) == shape)))
    return tuple(found)


def _choice_signature(automorphisms, vgroups, egroups) -> tuple:
    """The least, over the automorphisms of a shape (see
    _canonical_shapes), of (the sorted pairs of relabeled ends and edge
    class id, the vertex class ids by new label).  Two group choices on
    one shape get one signature exactly when an automorphism of the
    shape carries one onto the other up to isomorphism of each group."""
    kv = [_class(g)[0] for g in vgroups]
    kc = [_class(c)[0] for c in egroups]
    return min((tuple(sorted(zip(ends, kc))), tuple([kv[v] for v in old]))
               for ends, old in automorphisms)


def _canonical_form(shape, vgroups, egroups, monos) -> tuple:
    """The canonical form of a candidate, given as (shape, vertex groups,
    edge groups, injections): two candidates get the same form exactly
    when are_gog_isomorphic holds between their graphs.

    Groups are read through representatives: each group is sent, by one
    drawn isomorphism φ, to the catalog group R_X isomorphic to it, whose
    place in the catalog is its class id; so Iso(X, R_X) = Aut(R_X)∘φ.
    Which φ is drawn does not matter: forms are compared only within one
    enumeration, and for any fixed choice of representatives equal forms
    mean isomorphic graphs.

    A labeling orders and orients the edges and picks α_v ∈ Iso(G_v, R_v),
    γ_e ∈ Iso(R_C, C_e) and a conjugation per end.  It reads both ends of
    each edge in turn, an end m at v as (v's position, in order of first
    appearance; v's class id if v is new, else -1; the edge's class id,
    on its first end only; the conjugated α_v∘m∘γ_e).  The form is the
    least sequence of reads over all labelings: equal sequences describe
    one graph over the representatives.  A labeling reaching it reaches
    the least prefix at every read, so the reads are greedy and keep each
    partial labeling reaching the least prefix, as what later reads see:
    positions, each α_v on its unread ends, the images the pending end
    may read.  A new vertex's α_v absorbs its conjugation.  Each read is
    computed once per process and end state, and kept in _mono_facts.
    """
    if not shape:
        return (_class(vgroups[0])[0],)
    at, near = _shape_ends(shape)
    ms = [m for pair in monos for m in pair]
    kept = [_mono_facts(m.source, m.target).reads for m in ms]
    kv = [_class(g)[0] for g in vgroups]
    kc = [_class(c)[0] for c in egroups]
    # (read edges as a bit mask, positions, α_v∘m per unread end at a
    # positioned vertex, (pending end, the images it may read) or None)
    states = [(0, (-1,) * len(vgroups), (None,) * len(ms), None)]
    form, fresh = [], 0
    while True:
        best, picks = None, []
        for state in states:
            done, pos, _, pending = state
            for t in (pending[0],) if pending else [
                    t for t in range(len(ms)) if not done >> (t >> 1) & 1]:
                v = at[t]
                head = (pos[v], -1) if pos[v] >= 0 else (fresh, kv[v])
                if not pending:
                    head += (kc[t >> 1],)
                if best is None or head < best:
                    best, picks = head, [(state, t)]
                elif head == best:
                    picks.append((state, t))
        low, wins = None, []
        for state, t in picks:
            m, u, y = ms[t], t ^ 1, state[2][t]
            xs = state[3][1] if state[3] else None
            new = best[1] >= 0
            nh = tuple([ms[w].mapping for w in near[t]]) if new else None
            here = ms[u].mapping if new and at[u] == at[t] else None
            key = (m.mapping, y, xs, nh, here)
            if key not in kept[t]:
                kept[t][key] = _read(m, y, xs, nh, here)
            image, succ = kept[t][key]
            if low is None or image < low:
                low, wins = image, [(succ, state, t)]
            elif image == low:
                wins.append((succ, state, t))
        form.append(best + (low,))
        if len(form) == len(ms):
            return tuple(form)
        merged: dict[tuple, set] = {}
        for succ, (done, pos, seen, pending), t in wins:
            v, u = at[t], t ^ 1
            if pos[v] < 0:
                pos = pos[:v] + (fresh,) + pos[v + 1:]
            for vals, pairs in succ:
                now = list(seen)
                now[t] = None
                for w, val in zip(near[t], vals):
                    now[w] = val
                y, now[u] = now[u], None
                src = ms[u].mapping if y is None else y
                merged.setdefault((done | 1 << (t >> 1), pos, tuple(now),
                                   None if pending else u), set()).update(
                    [gamma(src if own is None else own)
                     for own, gamma in pairs])
        states = [(done, pos, seen, None if u is None
                   else (u, frozenset(xs)))
                  for (done, pos, seen, u), xs in merged.items()]
        fresh += best[1] >= 0


def _arrangements(groups: Sequence[FiniteGroup]):
    """Each distinct ordering of pinned groups, telling groups apart by
    identity, in the order of the first permutation giving it."""
    seen = set()
    for perm in itertools.permutations(range(len(groups))):
        key = tuple(id(groups[k]) for k in perm)
        if key not in seen:
            seen.add(key)
            yield [groups[k] for k in perm]


# -- bounded expansion search --------------------------------------------------


def _expansions(gog: GraphOfGroups):
    """(move, result) for every legal elementary expansion of the graph,
    each result built once; moves that would leave a dangling vertex are
    skipped.  A vertex group above EXPANSION_ORDER_CAP is refused before
    any subgroup is listed."""
    for w, grp in sorted(gog.vertices.items()):
        if grp.order > EXPANSION_ORDER_CAP:
            raise GogError(f"vertex {w!r} has order {grp.order}, above the "
                           f"expansion order cap {EXPANSION_ORDER_CAP}")
    for w in sorted(gog.vertices):
        ends = [(t.edge, t.dir) for t in gog.incident(w)]
        for sub in fg.all_subgroups(gog.vertices[w]):
            allowed = [pair for pair in ends
                       if set(gog.edges[pair[0]].inj[pair[1]].mapping)
                       <= set(sub.elements)]
            for k in range(1, len(allowed) + 1):
                for moved in itertools.combinations(allowed, k):
                    move = expansion_move(w, sub.elements, moved)
                    try:
                        new = _apply_expansion(gog, move)[0]
                    except GogError:
                        continue
                    yield move, new


def expansion_moves(gog: GraphOfGroups) -> list[DeformationMove]:
    """Every legal elementary expansion of the graph, with the subgroup and
    the reattached ends spelled out. Moves that would leave a dangling
    vertex are filtered out by building each expansion."""
    return [move for move, _ in _expansions(gog)]


def nonredundant_expansions(gog: GraphOfGroups, depth: int):
    """(the seed graph plus every non-redundant splitting reachable by at
    most `depth` elementary expansions, up to isomorphism, a report).

    Every graph reached is kept unless are_gog_isomorphic holds between
    it and a graph kept before.  The report is {"explored": the number
    of graphs kept, "frontier_all_redundant": bool}; the flag witnesses
    that continuing past the horizon only revisits redundant graphs.
    """
    _check_range("depth", depth, 0, EXPANSION_DEPTH_CAP)
    if not is_reduced(gog):
        raise GogError("expansion search expects a reduced splitting")
    seen: list[GraphOfGroups] = [gog]
    results: list[GraphOfGroups] = [gog]
    frontier: list[GraphOfGroups] = [gog]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for _, new in _expansions(cur):
                if any(are_gog_isomorphic(new, old) for old in seen):
                    continue
                seen.append(new)
                nxt.append(new)
                if is_non_redundant(new):
                    results.append(new)
        frontier = nxt
    report = {"explored": len(seen),
              "frontier_all_redundant": all(not is_non_redundant(g)
                                            for g in frontier)}
    return results, report
