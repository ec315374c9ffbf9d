"""Reference enumeration of reduced splittings: every candidate is built
and every pair of survivors is compared.

This is the enumeration `defspace` used before it learned to skip
candidates with a collapsible edge, to compare candidates only inside
invariant buckets, and to read conjugations from cached tables.  Its
isomorphism test is the element-by-element one, with every vertex-group
isomorphism listed afresh.  The tests require `defspace` to return the
same graphs, in the same order, as this module.

`first_of_each_form` is the selection `defspace` made before it visited
each group choice once up to relabeling: it lists every choice, sorts
all their candidates and keeps the first of each canonical form.  The
tests require `defspace` to keep the same graphs, in the same order.

`group_choices` is the listing of group choices `defspace` used before
it walked canonical shapes only: every connected shape, every edge group
up to the order of both ends, a pre-filter dropping collapsible choices,
then a signature over all vertex relabelings.  The tests require
`defspace` to visit the same choices, in the same order.

`OneEdgeForms` is the canonical form `defspace` once read off one-edge
candidates, bridge and loop apart; the tests require the forms of every
shape to split one-edge candidates into the same classes.
"""

import functools
import itertools

import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.gogwords as gw
from vfree.gogwords import GogError


def edge_compatible(e1, e2, alphas, flip):
    """Does some edge-group isomorphism commute with the injections up to
    conjugation at each end?"""
    if e1.group.order != e2.group.order:
        return False
    ends2 = (e2.inj[1], e2.inj[0]) if flip else e2.inj
    a0, a1 = alphas
    t0, t1 = ends2[0].target, ends2[1].target
    im0 = set(ends2[0].mapping)
    sec0 = {ends2[0](c): c for c in range(ends2[0].source.order)}
    dom = range(e1.group.order)
    for c0 in range(t0.order):
        twisted = [t0.conj(c0, a0(e1.inj[0](x))) for x in dom]
        if set(twisted) != im0:
            continue
        beta = [sec0[y] for y in twisted]
        if len(set(beta)) != e1.group.order:
            continue
        lhs = [ends2[1](b) for b in beta]
        for c1 in range(t1.order):
            if all(lhs[x] == t1.conj(c1, a1(e1.inj[1](x))) for x in dom):
                return True
    return False


def are_gog_isomorphic(g1, g2):
    """A graph isomorphism together with vertex and edge group isomorphisms
    commuting with the injections up to conjugation in the target vertex
    groups, searched over every vertex bijection and isomorphism."""
    v1, v2 = sorted(g1.vertices), sorted(g2.vertices)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    if sorted(g1.vertices[v].order for v in v1) != \
            sorted(g2.vertices[v].order for v in v2):
        return False
    if sorted(e.group.order for e in g1.edges.values()) != \
            sorted(e.group.order for e in g2.edges.values()):
        return False

    e1_ids = sorted(g1.edges)
    for perm in itertools.permutations(v2):
        sigma = dict(zip(v1, perm))
        if any(g1.vertices[v].order != g2.vertices[sigma[v]].order
               or ds.quotient_degree(g1, v) != ds.quotient_degree(g2, sigma[v])
               for v in v1):
            continue
        buckets = {}
        for eid in sorted(g2.edges):
            e = g2.edges[eid]
            buckets.setdefault(tuple(sorted(e.ends)), []).append(eid)
        if any(not buckets.get(tuple(sorted(sigma[x]
                                            for x in g1.edges[eid].ends)))
               for eid in e1_ids):
            continue
        iso_lists = {}
        for v in v1:
            isos = list(fg.isomorphisms_iter(g1.vertices[v],
                                             g2.vertices[sigma[v]]))
            if not isos:
                break
            iso_lists[v] = isos
        if len(iso_lists) != len(v1):
            continue
        if _match_edges(g1, g2, sigma, e1_ids, buckets, iso_lists):
            return True
    return False


def _match_edges(g1, g2, sigma, e1_ids, buckets, iso_lists):
    for alpha_choice in itertools.product(*(iso_lists[v]
                                            for v in sorted(iso_lists))):
        alpha = dict(zip(sorted(iso_lists), alpha_choice))

        def assign(idx, pool):
            if idx == len(e1_ids):
                return True
            e1 = g1.edges[e1_ids[idx]]
            key = tuple(sorted(sigma[x] for x in e1.ends))
            for pick in list(pool[key]):
                e2 = g2.edges[pick]
                for flip in (False, True):
                    ends2 = (e2.ends[1], e2.ends[0]) if flip else e2.ends
                    if tuple(sigma[x] for x in e1.ends) != ends2:
                        continue
                    a = (alpha[e1.ends[0]], alpha[e1.ends[1]])
                    if edge_compatible(e1, e2, a, flip):
                        pool[key].remove(pick)
                        if assign(idx + 1, pool):
                            return True
                        pool[key].append(pick)
            return False

        if assign(0, {k: list(v) for k, v in buckets.items()}):
            return True
    return False


def connected_shapes(p, q):
    """Connected multigraph shapes: multisets of endpoint pairs (i, j)."""
    slots = [(i, j) for i in range(p) for j in range(i, p)]
    for combo in itertools.combinations_with_replacement(slots, q):
        if gw._spanning_forest(range(p), combo)[1] == 1:
            yield combo


def edge_group_pools(shape, vgroups, catalog, edge_groups):
    """Every arrangement of the pinned edge groups, or every catalog edge
    group up to the order of both ends of its edge."""
    if edge_groups is not None:
        yield from ds._arrangements(edge_groups)
        return
    per_edge = []
    for i, j in shape:
        cap = min(vgroups[i].order, vgroups[j].order)
        per_edge.append([c for c in catalog if c.order <= cap])
    yield from itertools.product(*per_edge)


def has_collapsible_edge(shape, vgroups, egroups):
    """Does every candidate on these groups fail is_reduced?  An edge
    group of the order of an endpoint group has index 1 there whatever
    the injections, and a non-loop edge of index 1 is collapsible.  When
    no edge is, every candidate is reduced, and minimal too: a dangling
    vertex needs a non-loop edge of index 1."""
    return any(i != j and c.order in (vgroups[i].order, vgroups[j].order)
               for (i, j), c in zip(shape, egroups))


@functools.cache
def relabelings(shape):
    """(the relabeled (min, max) ends of each edge, the old vertex at each
    new label) for every relabeling of a shape's vertices."""
    p = 1 + max((v for edge in shape for v in edge), default=0)
    return tuple((tuple(tuple(sorted((new[i], new[j]))) for i, j in shape),
                  tuple(sorted(range(p), key=new.__getitem__)))
                 for new in itertools.permutations(range(p)))


def relabeling_signature(shape, vgroups, egroups):
    """The least, over every relabeling of the shape's vertices, of (the
    sorted pairs of relabeled ends and edge class id, the vertex class
    ids by new label)."""
    kv = [ds._class(g)[0] for g in vgroups]
    kc = [ds._class(c)[0] for c in egroups]
    return min((tuple(sorted(zip(ends, kc))), tuple(kv[v] for v in old))
               for ends, old in relabelings(shape))


def group_choices(p, q, r, vertex_groups=None, edge_groups=None):
    """(shape, vertex groups, edge groups) of each group choice listed on
    every connected shape, without a collapsible edge, and first of its
    relabeling signature."""
    catalog = ds.small_groups(r) if None in (vertex_groups, edge_groups) \
        else []
    seen = set()
    for shape in connected_shapes(p, q):
        if vertex_groups is None:
            vertex_pools = itertools.product(catalog, repeat=p)
        else:
            vertex_pools = ds._arrangements(vertex_groups)
        for vgroups in vertex_pools:
            for egroups in edge_group_pools(shape, vgroups, catalog,
                                            edge_groups):
                if has_collapsible_edge(shape, vgroups, egroups):
                    continue
                signature = relabeling_signature(shape, vgroups, egroups)
                if signature not in seen:
                    seen.add(signature)
                    yield shape, vgroups, egroups


def candidates(p, q, r, vertex_groups=None, edge_groups=None):
    """Every buildable candidate of the enumeration, reduced or not, as
    (shape, vertex groups, edge groups, graph of groups)."""
    catalog = ds.small_groups(r)
    for shape in connected_shapes(p, q):
        if vertex_groups is None:
            vertex_pools = itertools.product(catalog, repeat=p)
        else:
            vertex_pools = []
            for perm in itertools.permutations(range(p)):
                pool = [vertex_groups[k] for k in perm]
                if not any(all(a is b for a, b in zip(pool, old))
                           for old in vertex_pools):
                    vertex_pools.append(pool)
        for vgroups in vertex_pools:
            for egroups in edge_group_pools(shape, vgroups, catalog,
                                            edge_groups):
                mono_pools = []
                for (i, j), egrp in zip(shape, egroups):
                    mi = fg.all_monomorphisms(egrp, vgroups[i])
                    mj = fg.all_monomorphisms(egrp, vgroups[j])
                    mono_pools.append([(a, b) for a in mi for b in mj])
                for monos in itertools.product(*mono_pools):
                    cand = ds._candidate_graph(shape, vgroups, egroups, monos)
                    if cand is not None:
                        yield shape, vgroups, egroups, cand


def canonical_key(gog):
    """Sorted vertex orders, sorted (edge order, sorted end orders) and
    sorted quotient degrees, read off a built graph."""
    verts = sorted(gog.vertices[v].order for v in gog.vertices)
    edges = sorted((e.group.order,) + tuple(sorted(
        gog.vertices[x].order for x in e.ends)) for e in gog.edges.values())
    degs = sorted(ds.quotient_degree(gog, v) for v in gog.vertices)
    return (verts, edges, degs)


def enumerate_reduced(p, q, r, vertex_groups=None, edge_groups=None):
    """Reduced minimal candidates, sorted by the canonical key and kept
    when no earlier kept graph is isomorphic to them."""
    found = [cand for _, _, _, cand
             in candidates(p, q, r, vertex_groups, edge_groups)
             if ds.is_reduced(cand) and ds.is_minimal(cand)]
    found.sort(key=canonical_key)
    kept = []
    for cand in found:
        if not any(are_gog_isomorphic(cand, old) for old in kept):
            kept.append(cand)
    return kept


def first_of_each_form(p, q, r, vertex_groups=None, edge_groups=None):
    """The candidates of every group choice without a collapsible edge,
    stable-sorted by `_candidate_key`, keeping the first of each
    `_canonical_form` across all choices."""
    catalog = ds.small_groups(r) if None in (vertex_groups, edge_groups) \
        else []
    found = []
    for shape in connected_shapes(p, q):
        if vertex_groups is None:
            vertex_pools = itertools.product(catalog, repeat=p)
        else:
            vertex_pools = ds._arrangements(vertex_groups)
        for vgroups in vertex_pools:
            for egroups in edge_group_pools(shape, vgroups, catalog,
                                            edge_groups):
                if has_collapsible_edge(shape, vgroups, egroups):
                    continue
                mono_pools = [
                    [(a, b) for a in ds._orbit_reps(egrp, vgroups[i], 0)
                     for b in ds._orbit_reps(egrp, vgroups[j], 1)]
                    for (i, j), egrp in zip(shape, egroups)]
                key = ds._candidate_key(shape, vgroups, egroups)
                found.extend((key, shape, vgroups, egroups, monos)
                             for monos in itertools.product(*mono_pools))
    found.sort(key=lambda cand: cand[0])
    first = {}
    for cand in found:
        first.setdefault(ds._canonical_form(*cand[1:]), cand)
    return [ds._candidate_graph(*cand[1:]) for cand in first.values()]


def nonredundant_expansions(gog, depth):
    """(results, explored count) of the expansion search, deduplicating
    each new graph against every graph seen before it."""
    seen, results, frontier = [gog], [gog], [gog]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for move in ds.expansion_moves(cur):
                try:
                    new = ds.apply_move(cur, move)
                except GogError:
                    continue
                if any(are_gog_isomorphic(new, old) for old in seen):
                    continue
                seen.append(new)
                nxt.append(new)
                if ds.is_non_redundant(new):
                    results.append(new)
        frontier = nxt
    return results, len(seen)


class OneEdgeForms:
    """Canonical forms of candidates with at most one edge, given as
    (shape, vertex groups, edge groups, injections): two candidates get
    the same form exactly when are_gog_isomorphic holds between their
    graphs.  One instance serves one enumeration.  This is the one-edge
    dedup `defspace.enumerate_reduced` used before its forms covered
    every shape; it reads bridges and loops case by case.

    Groups are read through representatives.  Each group object is sent,
    through one drawn isomorphism φ, to the first group seen before it
    that it is isomorphic to (itself if none), and its class id is that
    representative's place in the list; Iso(X, R_X) is then Aut(R_X)∘φ.
    So candidates on isomorphic but distinct group objects are compared
    as tuples over the same representatives.

    are_gog_isomorphic holds for one edge C with injections (a, b) when,
    after swapping the ends of one graph or not, vertex-group
    isomorphisms and one edge-group isomorphism γ carry a to a' and b to
    b' up to a conjugation at each end.
    - A bridge joins two vertices A and B.  Their isomorphisms are
      independent and absorb the conjugations, so the class of (a, b) is
      its orbit under Iso(A, R_A) × Iso(B, R_B) × Iso(R_C, C).  Its least
      element, as a pair of image tuples, is the least over γ of
      (k_A(a∘γ), k_B(b∘γ)), where k_X(m) is the least α∘m over
      α ∈ Iso(X, R_X): for a fixed γ, the two ends minimize apart.
    - A loop has one vertex A, so one α acts on both ends, and each end
      has its own conjugation.  Each end is read as its inner class (the
      least of its conjugate tuples), and the class of (a, b) is its
      orbit under Iso(A, R_A) × Iso(R_C, C).  Its least element takes the
      least read of the first end, then the least read of the second end
      over the (α, γ) reaching the first.
    In both, the least first end is L, the least α∘a∘γ over all (α, γ):
    it depends only on the image of a, and each α carrying that image
    onto the image of L fixes the one γ with α∘a∘γ = L.  Conjugating L
    is undone by conjugating α, so those (α, γ) reach every value of the
    second end that any minimizing pair reaches.  Orbits that share an
    element are equal, so the least element is a complete invariant for
    one orientation; the form is the class ids and the lesser of the two
    orientations.  A graph without edges is its vertex group's class.
    """

    def __init__(self):
        self._reps: list[fg.FiniteGroup] = []
        self._classes: dict[fg.FiniteGroup, tuple] = {}
        self._least: dict[tuple, tuple] = {}
        self._moves: dict[fg.GroupHom, tuple] = {}
        self._images: dict[tuple, tuple] = {}

    def _class(self, grp: fg.FiniteGroup) -> tuple:
        """(class id, R, Iso(grp, R), Iso(R, grp)), isomorphisms as
        mapping tuples, R the representative of grp."""
        if grp not in self._classes:
            for k, rep in enumerate(self._reps):
                phi = next(fg.isomorphisms_iter(grp, rep), None) \
                    if rep.order == grp.order else None
                if phi is not None:
                    break
            else:
                k, rep = len(self._reps), grp
                phi = fg.GroupHom.identity(grp)
                self._reps.append(grp)
            to_rep = [fg._gather(phi.mapping)(alpha.mapping)
                      for alpha in rep.automorphisms()]
            from_rep = [tuple(sorted(range(grp.order), key=m.__getitem__))
                        for m in to_rep]
            self._classes[grp] = (k, rep, to_rep, from_rep)
        return self._classes[grp]

    def _lead(self, m: fg.GroupHom) -> tuple:
        """(L, the (α, γ) with α∘m∘γ = L), L the least α∘m∘γ over
        α ∈ Iso(X, R_X) and γ ∈ Iso(R_C, C)."""
        if m not in self._moves:
            to_rep = self._class(m.target)[2]
            key = (m.source, m.target, frozenset(m.mapping))
            if key not in self._least:
                gammas = self._class(m.source)[3]
                self._least[key] = min(
                    fg._gather(fg._gather(g)(m.mapping))(alpha)
                    for g in gammas for alpha in to_rep)
            lead = self._least[key]
            image, moves = set(lead), []
            for alpha in to_rep:
                moved = fg._gather(m.mapping)(alpha)
                if set(moved) == image:
                    at = {y: c for c, y in enumerate(moved)}
                    moves.append((alpha, tuple(at[y] for y in lead)))
            self._moves[m] = (lead, moves)
        return self._moves[m]

    def _image_min(self, m: fg.GroupHom, gamma: tuple) -> tuple:
        """k_X(m∘γ)."""
        if (m, gamma) not in self._images:
            get = fg._gather(fg._gather(gamma)(m.mapping))
            self._images[m, gamma] = min(map(get, self._class(m.target)[2]))
        return self._images[m, gamma]

    def _oriented(self, first: fg.GroupHom, second: fg.GroupHom, loop: bool):
        lead, moves = self._lead(first)
        if not loop:
            return lead, min(self._image_min(second, g)
                             for g in {g for _, g in moves})
        rows = self._class(second.target)[1].conjugation_rows()
        reads = []
        for alpha, g in moves:
            moved = fg._gather(fg._gather(g)(second.mapping))(alpha)
            reads.append(min(map(fg._gather(moved), rows)))
        return lead, min(reads)

    def __call__(self, shape, vgroups, egroups, monos) -> tuple:
        if not shape:
            return (self._class(vgroups[0])[0],)
        (i, j), (a, b) = shape[0], monos[0]
        ka, kb, kc = (self._class(g)[0]
                      for g in (vgroups[i], vgroups[j], egroups[0]))
        loop = i == j
        return (kc, min(((ka, kb), self._oriented(a, b, loop)),
                        ((kb, ka), self._oriented(b, a, loop))))
