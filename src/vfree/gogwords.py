"""Graphs of finite groups and exact arithmetic in their fundamental groups.

A GraphOfGroups carries a finite group at each vertex and edge, with a
verified injection of each edge group into both endpoint groups.  Elements
of the fundamental group are loop words at the base vertex; more generally
the machinery works with path words between arbitrary vertices, which is
what the tree-geometry layer needs.

Words are normalized left to right into a canonical syllable form: each
syllable is a coset representative followed by an edge traversal, with one
trailing free element.  Representatives are the minimal-index elements of
their cosets, so equality of group elements is literal equality of the
normalized data.

Normalization happens once, at the boundary: parse_word reads letters,
normal_form reduces and checks a loop word built outside the library, and
path_normal_form does the same for a path word between any two vertices.
Every other function takes normal forms from this library as given and
never reduces them again; a product reduces only the seam and the right
operand.

The value types are named tuples: a Traversal is (edge, dir), a
NormalForm is (start, steps, tail) and an Edge is (id, group, ends,
inj), so building, hashing and comparing them runs in C.  Each hashes as
the plain tuple of its fields, compares equal to that tuple and is
ordered like it; normal_form still refuses a plain tuple, which is not a
NormalForm.

Each GraphOfGroups is compiled once, at construction.  Every traversal
gets one record holding its near and far vertices, its reverse
traversal, its push and pinch tables, the far vertex's multiplication
table and its coset transversal at the near vertex; every vertex keeps
its one path of spanning-tree traversals from the base.  One reducer
reads the records: it extends a list of normal-form steps in place, one
record lookup per raw step, so products and inverses share it and
allocate nothing per step beyond the steps they keep.  Random walks
reduce each pick through it once, when the pick is compiled, and after
that read the pick's compiled positions (see genericity._walk).

The constructor checks a graph from outside in full; one the library
builds from checked parts (an enumerated splitting, a collapse, an
expansion) is only compiled, through GraphOfGroups._built.  Compiling
reads each edge image's coset data kept on its vertex group.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .fingroup import (
    FiniteGroup,
    GroupHom,
    _typed,
    _typed_list,
    basis_cycle_perm,
    build_boolean_vectors,
    build_cyclic,
    build_semidirect,
    check_hom,
    coset_data,
    evaluate_word,
    generator_word,
    group_from_json,
    group_to_json,
)


class GogError(ValueError):
    """Raised for malformed graphs of groups or malformed words."""


class Traversal(NamedTuple):
    """A directed crossing of an edge: dir 0 runs ends[0] -> ends[1]."""

    edge: str
    dir: int

    def reverse(self) -> "Traversal":
        return Traversal(self.edge, 1 - self.dir)


class Edge(NamedTuple):
    id: str
    group: FiniteGroup
    ends: tuple[str, str]
    inj: tuple[GroupHom, GroupHom]


class NormalForm(NamedTuple):
    """Canonical path word: start vertex, (representative, traversal) steps,
    and one trailing free element in the group at the end vertex.

    A named tuple: it hashes as the plain tuple (start, steps, tail),
    compares equal to it and is ordered like it."""

    start: str
    steps: tuple[tuple[int, Traversal], ...]
    tail: int

    def syllable_length(self) -> int:
        return len(self.steps)

    def sort_key(self):
        """Deterministic order: shorter first, then by the literal data."""
        return (len(self.steps), self.steps, self.tail)


class _Crossing(NamedTuple):
    """The compiled record of one traversal t.  push maps an element g at
    the near vertex to (r, f) with g = r · ι_near(c) and f = ι_far(c), r
    the canonical coset representative; pinch maps each ι_near(c) to
    ι_far(c); transversal lists the representatives r in order."""

    near: str
    far: str
    rev: Traversal
    push: dict
    pinch: dict
    far_table: tuple
    transversal: tuple


class GraphOfGroups:
    """Immutable graph of finite groups, compiled once at construction.

    The constructor checks every injection and builds one _Crossing record
    for each of the two traversals of each edge (near and far vertex, the
    interned reverse traversal, push and pinch tables, the far vertex's
    multiplication table, the coset transversal at the near vertex), and
    for each vertex the spanning-tree traversals from the base to it;
    products reduce in place through the records.  A graph the library
    builds from checked parts skips the checks (_built), and what the
    graph fills on first use is kept in _facts (see the fingroup module
    docstring).
    """

    __slots__ = ("vertices", "edges", "base_vertex", "spanning_tree",
                 "_crossing", "_incident", "_from_base", "_letter_home",
                 "_facts")

    def __init__(self, vertices: Iterable[tuple[str, FiniteGroup]],
                 edges: Iterable[Edge], base_vertex: str,
                 spanning_tree: Iterable[str]):
        self.vertices: dict[str, FiniteGroup] = {}
        for vid, grp in vertices:
            if vid in self.vertices:
                raise GogError(f"duplicate vertex id {vid!r}")
            self.vertices[vid] = grp
        if base_vertex not in self.vertices:
            raise GogError(f"base vertex {base_vertex!r} is not a vertex")
        self.base_vertex = base_vertex

        self.edges: dict[str, Edge] = {}
        for e in edges:
            if e.id in self.edges:
                raise GogError(f"duplicate edge id {e.id!r}")
            if e.id in self.vertices:
                raise GogError(f"edge id {e.id!r} collides with a vertex id")
            for k in (0, 1):
                if e.ends[k] not in self.vertices:
                    raise GogError(f"edge {e.id!r} endpoint {e.ends[k]!r} missing")
                hom = e.inj[k]
                if hom.source is not e.group or hom.target is not self.vertices[e.ends[k]]:
                    raise GogError(f"edge {e.id!r} injection {k} connects wrong groups")
                if not hom.is_injective() or check_hom(hom).status == "invalid":
                    raise GogError(f"edge {e.id!r} injection {k} is not a monomorphism")
            self.edges[e.id] = e

        self.spanning_tree = frozenset(spanning_tree)
        if len(self.spanning_tree) != len(self.vertices) - 1:
            raise GogError("spanning tree must have (vertex count - 1) edges")
        for eid in self.spanning_tree:
            if eid not in self.edges:
                raise GogError(f"spanning tree edge {eid!r} is not an edge")
            if self.edges[eid].ends[0] == self.edges[eid].ends[1]:
                raise GogError(f"loop edge {eid!r} cannot lie in a spanning tree")
        # (vertex count - 1) edges without a cycle connect every vertex, so
        # this check also rules out a disconnected underlying graph.
        tree_ends = [self.edges[eid].ends for eid in self.spanning_tree]
        if _spanning_forest(self.vertices, tree_ends)[1] != 1:
            raise GogError("spanning tree contains a cycle")
        self._compile()

    @classmethod
    def _built(cls, vertices: Iterable[tuple[str, FiniteGroup]], edges: Iterable[Edge],
               base_vertex: str, spanning_tree: Iterable[str]) -> GraphOfGroups:
        """A graph built from checked parts: its ids, injections and tree
        are sound by construction, so it is compiled but not checked."""
        gog = cls.__new__(cls)
        gog.vertices, gog.edges = dict(vertices), {e.id: e for e in edges}
        gog.base_vertex, gog.spanning_tree = base_vertex, frozenset(spanning_tree)
        gog._compile()
        return gog

    def _compile(self) -> None:
        self._incident: dict[str, list[Traversal]] = {v: [] for v in self.vertices}
        self._crossing: dict[Traversal, _Crossing] = {}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            pair = (Traversal(eid, 0), Traversal(eid, 1))
            for d, t in enumerate(pair):
                self._incident[e.ends[d]].append(t)
                image = e.inj[d].mapping
                pinch = dict(zip(image, e.inj[1 - d].mapping))
                reps, decomp = coset_data(self.vertices[e.ends[d]], image)
                self._crossing[t] = _Crossing(
                    e.ends[d], e.ends[1 - d], pair[1 - d],
                    {g: (r, pinch[h]) for g, (r, h) in decomp.items()},
                    pinch, self.vertices[e.ends[1 - d]].table, reps)

        # The tree spans, so this reaches every vertex.
        self._from_base: dict[str, tuple[Traversal, ...]] = {self.base_vertex: ()}
        frontier = [self.base_vertex]
        for v in frontier:
            for t in self._incident[v]:
                w = self.far(t)
                if t.edge in self.spanning_tree and w not in self._from_base:
                    self._from_base[w] = self._from_base[v] + (t,)
                    frontier.append(w)

        self._letter_home: dict[str, list[str]] = {}
        for vid in sorted(self.vertices):
            for name in self.vertices[vid].generators:
                self._letter_home.setdefault(name, []).append(vid)
        self._facts: dict = {}

    # -- local accessors ---------------------------------------------------

    def near(self, t: Traversal) -> str:
        return self._crossing[t].near

    def far(self, t: Traversal) -> str:
        return self._crossing[t].far

    def incident(self, vertex: str) -> list[Traversal]:
        return list(self._incident[vertex])

    def transversal(self, t: Traversal) -> tuple[int, ...]:
        """Canonical coset representatives at the near end of t."""
        return self._crossing[t].transversal

    def tree_path(self, u: str, w: str) -> tuple[Traversal, ...]:
        """The spanning-tree geodesic from u to w, kept per pair on first
        use: the base's path to u run backwards, then its path to w, with
        each traversal that undoes the one before it cancelled."""
        path = self._facts.get((u, w))
        if path is None:
            out = [t.reverse() for t in reversed(self._from_base[u])]
            for t in self._from_base[w]:
                if out and out[-1] == t.reverse():
                    out.pop()
                else:
                    out.append(t)
            path = self._facts[u, w] = tuple(out)
        return path


def _spanning_forest(nodes: Iterable, pairs: Sequence[tuple]
                     ) -> tuple[list[int], int]:
    """Union-find over the nodes, joining the pairs in order.

    Returns the indices of the pairs that joined two components (a
    spanning forest, first come first kept) and the component count."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for k, (a, b) in enumerate(pairs):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            picked.append(k)
    return picked, len(parent) - len(picked)


# -- normalization ---------------------------------------------------------


def _reduce_into(gog: GraphOfGroups, out: list, v: str, acc: int,
                 raw_steps: Iterable[tuple[int, Traversal]],
                 raw_tail: int) -> tuple[str, int]:
    """Reduce a raw path word, (element, traversal) steps plus a tail, onto
    a normal form in place, and return its new end vertex and tail.

    out holds the steps of a normal form ending at v, with acc its tail
    there.  The raw steps are appended to out, or cancel into its last
    steps, so only the seam and the raw steps cost work."""
    crossing = gog._crossing
    table = gog.vertices[v].table
    for g, t in raw_steps:
        near, far, rev, push, pinch, far_table, _ = crossing[t]
        if near != v:
            raise GogError(f"traversal {t} does not start at {v!r}")
        if not 0 <= g < len(table):
            raise GogError(f"element index {g} out of range at {v!r}")
        acc = table[acc][g]
        if out and out[-1][1] == rev and acc in pinch:
            acc = far_table[out.pop()[0]][pinch[acc]]
        else:
            r, acc = push[acc]
            out.append((r, t))
        v, table = far, far_table
    if not 0 <= raw_tail < len(table):
        raise GogError(f"tail index {raw_tail} out of range at {v!r}")
    return v, table[acc][raw_tail]


def _reduce_raw(gog: GraphOfGroups, start: str,
                raw_steps: Iterable[tuple[int, Traversal]],
                raw_tail: int) -> NormalForm:
    """Normalize a raw path word from start given as (element, traversal)
    steps plus tail."""
    out: list[tuple[int, Traversal]] = []
    tail = _reduce_into(gog, out, start, gog.vertices[start].identity,
                        raw_steps, raw_tail)[1]
    return NormalForm(start, tuple(out), tail)


def end_vertex(gog: GraphOfGroups, nf: NormalForm) -> str:
    return gog._crossing[nf.steps[-1][1]].far if nf.steps else nf.start


def identity_nf(gog: GraphOfGroups, vertex: Optional[str] = None) -> NormalForm:
    v = gog.base_vertex if vertex is None else vertex
    return NormalForm(v, (), gog.vertices[v].identity)


def is_identity(gog: GraphOfGroups, nf: NormalForm) -> bool:
    return not nf.steps and nf.tail == gog.vertices[nf.start].identity


def normal_form(gog: GraphOfGroups, w: NormalForm) -> NormalForm:
    """Reduce and check a loop word built outside this library.

    w is a path word with any (element, traversal) steps, checked as by
    path_normal_form; the reduced path must also end at its start vertex.
    Two loop words represent the same group element exactly when their
    normal forms are equal.  Normal forms from this library need no
    second pass.
    """
    if not isinstance(w, NormalForm):
        raise GogError(f"not a word: {w!r}")
    nf = path_normal_form(gog, w.start, w.steps, w.tail)
    if end_vertex(gog, nf) != nf.start:
        raise GogError("word is not a loop")
    return nf


# -- path-level arithmetic (used by the tree layer) -------------------------


def _has(table: dict, key) -> bool:
    """Whether key is in table; an unhashable key is not."""
    try:
        return key in table
    except TypeError:
        return False


def path_normal_form(gog: GraphOfGroups, start: str,
                     steps: Iterable[tuple[int, Traversal]],
                     tail: int) -> NormalForm:
    """Reduce and check a path word from start built outside this library.

    Each step must be an (element index, Traversal) pair crossing an edge
    of the graph in direction 0 or 1 from where the path is, and every
    element index, the tail's too, must be an int in range; the path may
    end anywhere.
    """
    if not _has(gog.vertices, start):
        raise GogError(f"unknown start vertex {start!r}")
    steps = tuple(steps)
    for k, step in enumerate(steps):
        if not (isinstance(step, tuple) and len(step) == 2
                and isinstance(step[0], int)
                and isinstance(step[1], Traversal)):
            raise GogError(f"step {k} is not an (element index, Traversal) "
                           f"pair: {step!r}")
        t = step[1]
        if not _has(gog.edges, t.edge):
            raise GogError(f"step {k} crosses unknown edge {t.edge!r}")
        if t.dir not in (0, 1):
            raise GogError(f"step {k} crosses edge {t.edge!r} in direction "
                           f"{t.dir!r}, not 0 or 1")
    if not isinstance(tail, int):
        raise GogError(f"tail {tail!r} is not an element index")
    return _reduce_raw(gog, start, steps, tail)


def path_multiply(gog: GraphOfGroups, p: NormalForm, q: NormalForm,
                  *rest: NormalForm) -> NormalForm:
    """Concatenation p * q (* each of rest, left to right) of composable
    paths, in normal form.

    p must be a normal form from this library (parse_word, normal_form,
    path_normal_form, or arithmetic on their results); it is not checked
    again.  Only the seams and the later factors are reduced, onto one
    list of steps: p's steps are kept as they stand except where a later
    factor cancels into them.  The later factors may be any path words.
    """
    steps = list(p.steps)
    end, tail = end_vertex(gog, p), p.tail
    for f in (q, *rest):
        if f.start != end:
            raise GogError("paths are not composable")
        end, tail = _reduce_into(gog, steps, end, tail, f.steps, f.tail)
    return NormalForm(p.start, tuple(steps), tail)


def path_invert(gog: GraphOfGroups, p: NormalForm) -> NormalForm:
    """The reverse path p^-1, renormalized."""
    end = end_vertex(gog, p)
    raw: list[tuple[int, Traversal]] = []
    carry = gog.vertices[end].inv(p.tail)
    for r, t in reversed(p.steps):
        c = gog._crossing[t]
        raw.append((carry, c.rev))
        carry = gog.vertices[c.near].inv(r)
    return _reduce_raw(gog, end, raw, carry)


def conjugate(gog: GraphOfGroups, h: NormalForm, w: NormalForm) -> NormalForm:
    """h * w * h^-1 for loops at the base vertex.  h and w must be normal
    forms from this library; they are not reduced again."""
    return path_multiply(gog, h, w, path_invert(gog, h))


# -- cyclic reduction and orders --------------------------------------------


def cyclic_reduction(gog: GraphOfGroups, w: NormalForm
                     ) -> tuple[NormalForm, NormalForm]:
    """Split w as conjugator * core * conjugator^-1 with the core cyclically
    reduced: either no traversals at all (elliptic) or no pinch across the
    wrap-around (hyperbolic).  The conjugator is the prefix of w up to the
    core's anchor vertex, a normal form as every prefix of one is.  w must
    be a normal form of a loop from this library; it is not reduced again."""
    steps, k, tail = w.steps, 0, w.tail
    while 2 * k < len(steps):
        (r1, t1), (rn, tn) = steps[k], steps[-1 - k]
        c = gog._crossing[t1]
        seam = gog.vertices[c.near].mul(tail, r1)
        if tn != c.rev or seam not in c.pinch:
            break
        tail = c.far_table[rn][c.pinch[seam]]
        k += 1
    anchor = gog._crossing[steps[k - 1][1]].far if k else w.start
    return (NormalForm(w.start, steps[:k], gog.vertices[anchor].identity),
            NormalForm(anchor, steps[k:len(steps) - k], tail))


def element_order(gog: GraphOfGroups, w: NormalForm) -> Union[int, float]:
    """Order of the element: a positive integer, or math.inf when the
    cyclically reduced core still crosses an edge (hyperbolic).  w must
    be a normal form from this library."""
    conj, core = cyclic_reduction(gog, w)
    if core.steps:
        return float("inf")
    return gog.vertices[core.start].element_order(core.tail)


# -- input words -------------------------------------------------------------

MAX_WORD_TRAVERSALS = 100_000


def _letter_vertex(gog: GraphOfGroups, at: str, name: str) -> str:
    """The vertex whose group reads the generator letter `name`, seen from
    the vertex `at`: at itself if its group has the letter, else the one
    vertex that does."""
    homes = gog._letter_home.get(name)
    if not homes:
        raise GogError(f"unknown letter {name!r}")
    if at in homes:
        return at
    if len(homes) == 1:
        return homes[0]
    raise GogError(f"letter {name!r} is ambiguous between vertices {homes}")


def parse_word(gog: GraphOfGroups, text: str) -> NormalForm:
    """Parse whitespace-separated letters into the normal form of a loop
    at the base vertex.

    Letters are vertex-group generator names or non-tree edge names; a
    trailing ^k (k an integer, typically -1) inverts or repeats, and ^0
    is the identity but must still name a letter.  A spanning-tree edge
    carries no letter, so its id reads as a generator of that name; a
    name that is both a non-tree edge and a generator is ambiguous.
    Spanning-tree crossings are inserted automatically.  A word may cross
    non-tree edges at most MAX_WORD_TRAVERSALS times in all; the count is
    checked before a letter is expanded.  The letters are read into one
    raw path word, which is reduced in a single pass; the word ends at
    the base vertex, and the reduction range-checks every element.
    """
    steps: list[tuple[int, Traversal]] = []
    v = gog.base_vertex
    acc = gog.vertices[v].identity

    def cross(path: Iterable[Traversal]) -> None:
        nonlocal v, acc
        for t in path:
            steps.append((acc, t))
            v = gog.far(t)
            acc = gog.vertices[v].identity

    traversals = 0
    for token in text.split():
        name, caret, exp = token.partition("^")
        if not name:
            raise GogError(f"malformed token {token!r}")
        power = 1
        if caret:
            try:
                power = int(exp)
            except ValueError:
                raise GogError(f"malformed exponent in {token!r}") from None
        homes = gog._letter_home.get(name)
        if name in gog.edges and not (homes and name in gog.spanning_tree):
            traversals += abs(power)
            if traversals > MAX_WORD_TRAVERSALS:
                raise GogError(f"letter {name!r} takes the word past "
                               f"{MAX_WORD_TRAVERSALS} edge traversals")
            if name in gog.spanning_tree:
                raise GogError(f"{name!r} is a spanning-tree edge and "
                               "carries no letter")
            if homes:
                raise GogError(f"letter {name!r} is ambiguous between edge "
                               f"{name!r} and the generator at vertices "
                               f"{homes}")
            d = 0 if power > 0 else 1
            near = gog.edges[name].ends[d]
            for _ in range(abs(power)):
                cross(gog.tree_path(v, near))
                cross((Traversal(name, d),))
            continue
        home = _letter_vertex(gog, v, name)
        if power == 0:
            continue
        cross(gog.tree_path(v, home))
        grp = gog.vertices[home]
        idx = grp.generators[name]
        if power < 0:
            idx, power = grp.inv(idx), -power
        acc = grp.mul(acc, grp.power(idx, power))
    cross(gog.tree_path(v, gog.base_vertex))
    return _reduce_raw(gog, gog.base_vertex, steps, acc)


def generator_letters(gog: GraphOfGroups) -> list[tuple[str, NormalForm]]:
    """Canonical lifts of all letters: vertex-group generators and non-tree
    edges, as normal forms of loop words at the base.  A name that is
    both a non-tree edge and a generator names no letter (parse_word
    refuses it), so it is left out."""
    edges = [eid for eid in sorted(gog.edges) if eid not in gog.spanning_tree]
    clash = gog._letter_home.keys() & edges
    out = []
    for vid in sorted(gog.vertices):
        grp = gog.vertices[vid]
        for name in sorted(grp.generators):
            if grp.generators[name] != grp.identity and name not in clash:
                out.append((name, parse_word(gog, name)))
    out += [(eid, parse_word(gog, eid)) for eid in edges if eid not in clash]
    return out


def format_nf(gog: GraphOfGroups, nf: NormalForm) -> str:
    """Readable rendering: representatives by label, traversals as e+ / e-."""
    parts = []
    v = nf.start
    for r, t in nf.steps:
        if r != gog.vertices[v].identity:
            parts.append(gog.vertices[v].label(r))
        parts.append(t.edge + ("+" if t.dir == 0 else "-"))
        v = gog.far(t)
    if nf.tail != gog.vertices[v].identity or not parts:
        parts.append(gog.vertices[v].label(nf.tail))
    return " ".join(parts)


def nf_to_json(gog: GraphOfGroups, nf: NormalForm) -> dict:
    v = nf.start
    steps = []
    for r, t in nf.steps:
        steps.append({"rep": r, "rep_label": gog.vertices[v].label(r),
                      "edge": t.edge, "dir": t.dir})
        v = gog.far(t)
    return {"start": nf.start, "steps": steps, "tail": nf.tail,
            "tail_label": gog.vertices[v].label(nf.tail),
            "end": v, "syllables": len(nf.steps)}


# -- constructors ------------------------------------------------------------


def build_amalgam(A: FiniteGroup, B: FiniteGroup, C: FiniteGroup,
                  iA: GroupHom, iB: GroupHom) -> GraphOfGroups:
    """One-edge graph of groups A *_C B (the constructor checks iA, iB)."""
    edge = Edge("e", C, ("vA", "vB"), (iA, iB))
    return GraphOfGroups([("vA", A), ("vB", B)], [edge], "vA", {"e"})


def build_rose(letters: Sequence[str]) -> GraphOfGroups:
    """Free group on the given letters: one trivial vertex, one loop each."""
    trivial = build_cyclic(1, "id0")
    vertex = ("v", trivial)
    edge_triv = build_cyclic(1, "id1")
    edges = []
    for name in letters:
        inc = GroupHom.from_generator_images(edge_triv, trivial, {"id1": 0})
        edges.append(Edge(name, edge_triv, ("v", "v"), (inc, inc)))
    return GraphOfGroups([vertex], edges, "v", set())


def build_sl2z() -> GraphOfGroups:
    """Z/4 amalgamated with Z/6 over Z/2: generators a (order 4), b (order 6),
    with a^2 = b^3."""
    A = build_cyclic(4, "a")
    B = build_cyclic(6, "b")
    C = build_cyclic(2, "c")
    iA = GroupHom.from_generator_images(C, A, {"c": A.power(A.generator("a"), 2)})
    iB = GroupHom.from_generator_images(C, B, {"c": B.power(B.generator("b"), 3)})
    return build_amalgam(A, B, C, iA, iB)


def build_free_product(A: FiniteGroup, B: FiniteGroup) -> GraphOfGroups:
    """A * B: amalgam over the trivial group."""
    C = build_cyclic(1, "c0")
    iA = GroupHom(C, A, (A.identity,))
    iB = GroupHom(C, B, (B.identity,))
    return build_amalgam(A, B, C, iA, iB)


def build_z2z3() -> GraphOfGroups:
    """Z/2 * Z/3 with generators s (order 2) and t (order 3): PSL(2, Z)."""
    return build_free_product(build_cyclic(2, "s"), build_cyclic(3, "t"))


def build_counterexample() -> GraphOfGroups:
    """The virtually free group that is not ∃-homogeneous: A *_C B over
    C = (Z/2)^4 with basis e1..e4, embedded as the normal subgroup of
    A = C ⋊ (Z/2)^2, where x swaps e1, e2 and y swaps e3, e4, and of
    B = C ⋊ Z/3, where z cycles e1, e2, e3."""
    C = build_boolean_vectors(4)
    A = build_semidirect(C, build_boolean_vectors(2, names=("x", "y")), {
        "x": basis_cycle_perm("(e1 e2)", 4),
        "y": basis_cycle_perm("(e3 e4)", 4)})
    B = build_semidirect(C, build_cyclic(3, "z"),
                         {"z": basis_cycle_perm("(e1 e2 e3)", 4)})
    iA = GroupHom.from_generator_images(
        C, A, {n: A.generator(n) for n in C.generators})
    iB = GroupHom.from_generator_images(
        C, B, {n: B.generator(n) for n in C.generators})
    return build_amalgam(A, B, C, iA, iB)


# -- JSON ---------------------------------------------------------------------


def _hom_from_spec(edge_group: FiniteGroup, target: FiniteGroup,
                   spec, where: str) -> GroupHom:
    images = {}
    for name, word in _typed(spec, "an object", where).items():
        if name not in edge_group.generators:
            raise GogError(f"injection names unknown generator {name!r}")
        images[name] = evaluate_word(
            target, _typed(word, "a string", f"{where}[{name!r}]"))
    return GroupHom.from_generator_images(edge_group, target, images)


def gog_from_json(data: Union[str, dict]) -> GraphOfGroups:
    """Build a graph of groups from its JSON description.

    Expected shape: {"vertices": [{"id", "group"}...],
    "edges": [{"id", "group", "ends": [u, w], "maps": [spec0, spec1]}...],
    "base": id, "tree": [edge ids]}, where each injection spec maps edge
    generator names to words in the endpoint group's generators.  Every
    field is type-checked, and a wrong one is named in the error with the
    JSON type it had.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        _typed(data, "an object", "graph of groups")
        vertices = []
        for i, v in enumerate(_member(data, "vertices", "a list")):
            where = f"vertices[{i}]"
            vid = _member(_typed(v, "an object", where), "id", "a string",
                          where)
            vertices.append((vid, group_from_json(_member(v, "group", None,
                                                          where))))
        vgroups = dict(vertices)
        edges = []
        for i, e in enumerate(_member(data, "edges", "a list")):
            where = f"edges[{i}]"
            eid = _member(_typed(e, "an object", where), "id", "a string",
                          where)
            grp = group_from_json(_member(e, "group", None, where))
            ends = tuple(_typed_list(_member(e, "ends", None, where), str,
                                     f"{where}.ends"))
            if len(ends) != 2 or any(v not in vgroups for v in ends):
                raise GogError(f"edge {eid!r} has bad endpoints "
                               f"{json.dumps(ends)}")
            maps = _member(e, "maps", "a list", where)
            if len(maps) != 2:
                raise GogError(f"{where}.maps must list 2 injections "
                               f"(got {len(maps)})")
            inj = tuple(_hom_from_spec(grp, vgroups[v], spec,
                                       f"{where}.maps[{k}]")
                        for k, (v, spec) in enumerate(zip(ends, maps)))
            edges.append(Edge(eid, grp, ends, inj))
        tree = [_typed(t, "a string", f"tree[{i}]") for i, t in
                enumerate(_typed(data.get("tree", []), "a list",
                                 "field 'tree'"))]
        return GraphOfGroups(vertices, edges,
                             _member(data, "base", "a string"), set(tree))
    except (KeyError, TypeError) as exc:
        raise GogError(f"malformed graph-of-groups JSON: {exc}") from exc


def _member(obj: dict, key: str, want: Optional[str],
            where: Optional[str] = None):
    """obj[key], of JSON type want unless that is None.  A missing or
    mistyped field is named with its place: a field of the vertex or
    edge at where, else a top-level field of the graph."""
    if key not in obj:
        raise GogError(f"{where or 'graph of groups'} has no field {key!r}")
    if want is None:
        return obj[key]
    return _typed(obj[key], want, f"{where}.{key}" if where
                  else f"field {key!r}")


def gog_to_json(gog: GraphOfGroups) -> dict:
    """Serialize; groups are emitted as explicit tables, injections as
    generator-image words."""
    verts = [{"id": vid, "group": group_to_json(gog.vertices[vid])}
             for vid in sorted(gog.vertices)]
    edges = []
    for eid in sorted(gog.edges):
        e = gog.edges[eid]
        maps = []
        for k in (0, 1):
            tgt = gog.vertices[e.ends[k]]
            maps.append({name: generator_word(tgt, e.inj[k](idx))
                         for name, idx in e.group.generators.items()})
        edges.append({"id": eid, "group": group_to_json(e.group),
                      "ends": list(e.ends), "maps": maps})
    return {"vertices": verts, "edges": edges, "base": gog.base_vertex,
            "tree": sorted(gog.spanning_tree)}
