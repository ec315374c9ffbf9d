"""Finite groups as explicit multiplication tables.

Elements are dense integer indices 0..n-1. Every constructor in this module
places the identity at index 0; tables loaded from external data may put it
anywhere (validation locates it). Composition is rightmost-first everywhere:
(f∘g)(x) = f(g(x)), and the conjugation action is ad(g)(x) = g·x·g⁻¹, so
ad(gh) = ad(g)∘ad(h).

Subgroups, homomorphisms and their reports are named tuples: each hashes
as the plain tuple of its fields and compares equal to it.

Kept state, one rule for the package: a fact derived from an object is
kept on that object, filled on first use, and goes when the object goes.

- A FiniteGroup keeps in _facts its element orders ("orders"), Aut(G)
  ("auts"), conjugation rows ("conj"), the coset_data of each subgroup
  asked for (under the frozenset of its elements; the compiled records
  of graphs of groups hold that very data, so it must not be changed)
  and defspace's facts ("stats", "class", and under (c, x) those of the
  monomorphisms c → x, kept on x, or on c when x is a catalog group, so
  that a catalog group holds only catalog groups; their GroupHom values
  refer to c, so weak keys would not free it).
- A GraphOfGroups keeps in _facts the tree path between two vertices
  under (u, w); the Whitehead frame of an orbit under the orbit, with
  its direction map, the neighbor of the standard vertex in each
  direction (t, r); each compiled pick under its reduced (steps, tail):
  the picks of walks, the grams compiled from them and the syllable
  images of the counterexample's phi alike, in that one slot, so a loop
  that is more than one of these is compiled once; and under
  (genericity._WALK_PLAN, support, weights) the plan of that walk
  measure: its compiled picks, step and byte tables, whether the
  generation check passed, its count of grams drawn, and its gram
  table, which fills once that count passes the number of grams.  No
  two such keys are equal.  What a graph compiles at construction is
  not kept state; its traversal records reference the coset data of
  its vertex groups.
- A marked tree (folds) keeps nothing: the far image of each edge end
  is compiled where the tree comes in and moved by the fold that builds
  the next tree, so it is not kept state, and a marked tree is not
  changed after it is built.
- functools.cache holds only plain values of its arguments (shapes, the
  CLI parser, and the tables, generator items, labels and injection
  mappings of each builtin presentation, from which every load builds
  new groups and a checked graph) and defspace's catalog, whose groups
  live for the process.

A kept fact never changes an answer: each call returns what it would
with nothing kept.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


class GroupError(ValueError):
    """Raised when group data fails validation or an operation is illegal."""


MAX_GROUP_ORDER = 512
"""The most elements a group built from JSON or from permutations may
have, checked before any table is built: a table holds n² entries, an
order-512 one builds from table JSON in about 0.1 s (2-vCPU VM, CPython
3.11), and the largest builtin group has order 64."""


def _gather(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """The map r ↦ tuple(r[i] for i in idx), run in C by itemgetter.

    Composes rows: _gather(b)(a) is a∘b when both are index tuples, so a
    whole table row is read or composed in one call.  itemgetter returns
    a bare entry for one index and takes no empty index list, so those
    two short cases map instead."""
    if len(idx) > 1:
        return itemgetter(*idx)
    idx = tuple(idx)
    return lambda r: tuple(map(r.__getitem__, idx))


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[i][j] is the index of the product (element i) * (element j).
    generators maps generator names to element indices and must generate
    the whole group. The constructor validates the table: associativity
    is checked exactly at every order, in O(n² log n) table lookups (see
    _check_group_axioms). Validation works a row at a time in C: the
    identity row and each inverse are found by tuple.index, and Light's
    test composes two rows with one itemgetter call and compares the
    result as a tuple.  Entries are scanned one by one only to name the
    witness of a failure.  The constructors in this module, whose tables
    are groups by construction, build through _built and skip the square
    and axiom checks; tests run every one of them through the validating
    constructor.

    Derived facts are kept in _facts (see the module docstring).
    """

    __slots__ = ("table", "order", "identity", "inverses", "generators",
                 "labels", "_facts")

    def __init__(self, table: Sequence[Sequence[int]],
                 generators: dict[str, int],
                 labels: Optional[Sequence[str]] = None):
        t = tuple(map(tuple, table))
        if not t:
            raise GroupError("empty multiplication table")
        if set(map(len, t)) != {len(t)} or min(map(min, t)) < 0 \
                or max(map(max, t)) >= len(t):
            raise GroupError("multiplication table is not square over 0..n-1")
        self._fill(t, generators, labels)
        self._check_group_axioms()

    @classmethod
    def _built(cls, table: Sequence[Sequence[int]],
               generators: dict[str, int],
               labels: Sequence[str]) -> FiniteGroup:
        """The group a constructor in this module made: its table is a
        group and its generators generate it by construction, so neither
        the square check nor Light's test runs."""
        group = cls.__new__(cls)
        group._fill(tuple(map(tuple, table)), generators, labels)
        return group

    def _fill(self, t: tuple[tuple[int, ...], ...],
              generators: dict[str, int],
              labels: Optional[Sequence[str]]) -> None:
        """Set every slot from the square table t; a GroupError when t
        has no identity, an element has no inverse or the labels do not
        fit."""
        self.table = t
        self.order = len(t)
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self.generators = dict(generators)
        if labels is None:
            labels = [f"g{i}" for i in range(self.order)]
        if len(labels) != self.order:
            raise GroupError("label list length does not match group order")
        self.labels = tuple(labels)
        self._facts = {}

    def _find_identity(self) -> int:
        """The two-sided identity: the first row that is the identity
        permutation, if its column is one too.  A two-sided identity is
        the only left identity, so no later row can be it."""
        t = self.table
        ident = tuple(range(self.order))
        if ident in t:
            e = t.index(ident)
            if tuple(map(itemgetter(e), t)) == ident:
                return e
        raise GroupError("no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        """inv[x] is the first y in row x with x·y = e = y·x."""
        t, e = self.table, self.identity
        inv = []
        for x, row in enumerate(t):
            try:
                y = row.index(e)
                while t[y][x] != e:
                    y = row.index(e, y + 1)
            except ValueError:
                raise GroupError(f"element {x} has no inverse") from None
            inv.append(y)
        return tuple(inv)

    def _check_group_axioms(self) -> None:
        """Light's associativity test on a generating set it builds.

        A declared generator s is kept when the right-closure of the
        identity under the ones kept so far does not contain it; every
        row x must then satisfy (x·s)·y = x·(s·y) for all y.  Exact: the
        elements a with (x·a)·y = x·(a·y) for all x, y are closed under
        products, and every element is a product of kept generators.  The
        closure of checked generators is a subgroup, so each kept one at
        least doubles it: at most log2(n) are kept, and the check costs
        O(n² log n).  Each row test is one tuple comparison of row x·s with
        row x composed with row s; only a failing row is scanned entry by
        entry, for the first y that breaks it.
        """
        n, t = self.order, self.table
        for name, idx in self.generators.items():
            if not 0 <= idx < n:
                raise GroupError(f"generator {name!r} index out of range")
        closure = {self.identity}
        kept: list[int] = []
        for s in self.generators.values():
            if s in closure:
                continue
            ts = t[s]
            times_s = _gather(ts)
            for x, row in enumerate(t):
                xs_row = t[row[s]]
                if xs_row != times_s(row):
                    y = next(y for y in range(n) if xs_row[y] != row[ts[y]])
                    raise GroupError(f"associativity fails at ({x},{s},{y})")
            kept.append(s)
            _close(self, closure, kept)
        if len(closure) != n:
            raise GroupError("declared generators do not generate the group")

    # -- arithmetic -------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def conj(self, g: int, x: int) -> int:
        """ad(g)(x) = g·x·g⁻¹."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def power(self, i: int, k: int) -> int:
        """i^k, with k reduced modulo the order of i first."""
        if k < 0:
            return self.power(self.inverses[i], -k)
        acc = self.identity
        for _ in range(k % self.element_order(i)):
            acc = self.table[acc][i]
        return acc

    def element_order(self, i: int) -> int:
        acc = i
        n = 1
        while acc != self.identity:
            acc = self.table[acc][i]
            n += 1
            if n > self.order:
                raise GroupError("element order exceeds group order")
        return n

    def element_orders(self) -> tuple[int, ...]:
        orders = self._facts.get("orders")
        if orders is None:
            orders = self._facts["orders"] = tuple(
                map(self.element_order, range(self.order)))
        return orders

    def automorphisms(self) -> tuple[GroupHom, ...]:
        """Aut(G), in isomorphisms_iter order; listed once and kept."""
        auts = self._facts.get("auts")
        if auts is None:
            auts = self._facts["auts"] = tuple(isomorphisms_iter(self, self))
        return auts

    def conjugation_rows(self) -> tuple[tuple[int, ...], ...]:
        """rows[g][x] = g·x·g⁻¹ for every g; built once and kept."""
        rows = self._facts.get("conj")
        if rows is None:
            t = self.table
            rows = self._facts["conj"] = tuple(
                tuple(t[gx][self.inverses[g]] for gx in t[g])
                for g in range(self.order))
        return rows

    def label(self, i: int) -> str:
        return self.labels[i]

    def generator(self, name: str) -> int:
        if name not in self.generators:
            raise GroupError(f"unknown generator {name!r}")
        return self.generators[name]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        gens = ",".join(self.generators)
        return f"FiniteGroup(order={self.order}, gens=[{gens}])"


class Subgroup(NamedTuple):
    """A subgroup recorded as a sorted tuple of element indices."""

    group: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, i: int) -> bool:
        return i in set(self.elements)

    def as_group(self) -> tuple[FiniteGroup, dict[int, int]]:
        """Realize the subgroup as a standalone FiniteGroup.

        Returns (group, embed) where embed maps local indices back to
        indices in the parent group. Local index 0 is the identity.  It
        is built unchecked (_built): any set but a subgroup raises here.
        """
        elts = sorted(self.elements, key=lambda i: i != self.group.identity)
        if not elts:
            raise GroupError("empty multiplication table")
        pos = {e: k for k, e in enumerate(elts)}
        times = _gather(elts)
        try:
            table = [list(map(pos.__getitem__, times(self.group.table[a])))
                     for a in elts]
        except KeyError:
            raise GroupError(f"elements {list(self.elements)} are not closed "
                             "under the group product") from None
        labels = [self.group.label(e) for e in elts]
        gens = {f"s{k}": k for k in range(1, len(elts))} or {"s0": 0}
        sub = FiniteGroup._built(table, gens, labels)
        return sub, {k: e for k, e in enumerate(elts)}


class GroupHom(NamedTuple):
    """A map between finite groups, recorded on every element."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self ∘ other (other applied first)."""
        if other.target is not self.source:
            raise GroupError("composition with mismatched groups")
        return GroupHom(other.source, self.target,
                        tuple(self.mapping[v] for v in other.mapping))

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.mapping)))

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order

    @staticmethod
    def identity(group: FiniteGroup) -> "GroupHom":
        return GroupHom(group, group, tuple(range(group.order)))

    @staticmethod
    def from_generator_images(source: FiniteGroup, target: FiniteGroup,
                              images: dict[str, int]) -> "GroupHom":
        """Extend generator images to all elements along the Cayley tree of
        the generators in sorted-name order (see _cayley_tree).

        The extension always exists as a map; whether it is a homomorphism
        must be checked afterwards (check_hom reports a witness if not).
        """
        if set(images) != set(source.generators):
            raise GroupError("images must be given for exactly the declared generators")
        names = sorted(images)
        tree = _cayley_tree(source, [source.generators[n] for n in names])
        if len(tree) + 1 != source.order:
            raise GroupError("generators do not reach every element")
        imgs = [images[n] for n in names]
        mapping = [-1] * source.order
        mapping[source.identity] = target.identity
        for x, k, y in tree:
            mapping[y] = target.mul(mapping[x], imgs[k])
        return GroupHom(source, target, tuple(mapping))


class HomReport(NamedTuple):
    """Outcome of check_hom: status is valid_iso, valid_hom, or invalid."""

    status: str
    witness: Optional[tuple[int, int]] = None

    @property
    def is_hom(self) -> bool:
        return self.status in ("valid_hom", "valid_iso")


def check_hom(h: GroupHom) -> HomReport:
    """Classify a recorded map: isomorphism, plain homomorphism, or invalid.

    The witness for an invalid map is a pair (x, y) with
    h(x·y) ≠ h(x)·h(y), the first in row-major order.  Row x is tested
    whole, as h∘(row x of the source) against (row h(x) of the target)∘h;
    only a row that differs is scanned for its first y.
    """
    src, tgt, m = h.source, h.target, h.mapping
    image = _gather(m)
    for x, row in enumerate(src.table):
        hx_row = tgt.table[m[x]]
        if _gather(row)(m) != image(hx_row):
            y = next(y for y in range(src.order) if m[row[y]] != hx_row[m[y]])
            return HomReport("invalid", (x, y))
    bijective = len(set(m)) == src.order == tgt.order
    return HomReport("valid_iso" if bijective else "valid_hom")


def _close(group: FiniteGroup, closure: set, gens: Sequence[int]) -> None:
    """Close a set in place under right multiplication by gens, reading each
    new element's row at gens in one _gather call.  The whole set is the
    first frontier, so a set closed under some of gens grows from there."""
    times = _gather(gens)
    frontier = closure
    while frontier:
        frontier = set(chain.from_iterable(
            map(times, map(group.table.__getitem__, frontier)))) - closure
        closure |= frontier


def _cayley_tree(group: FiniteGroup, gens: Sequence[int]
                 ) -> list[tuple[int, int, int]]:
    """The breadth-first spanning tree of <gens> in the right Cayley graph.

    Returns one (x, k, x·gens[k]) triple per element other than the
    identity, in the order the elements are first reached; x is always
    reached before x·gens[k].  Right multiplication alone reaches the
    whole subgroup because the group is finite.
    """
    table = group.table
    seen = {group.identity}
    tree = []
    frontier = [group.identity]
    for x in frontier:
        row = table[x]
        for k, g in enumerate(gens):
            y = row[g]
            if y not in seen:
                seen.add(y)
                tree.append((x, k, y))
                frontier.append(y)
    return tree


def subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given element indices: the closure of
    the identity under them (see _close)."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < group.order:
            raise GroupError(f"generator index {g} out of range")
    closure = {group.identity}
    _close(group, closure, gens)
    return Subgroup(group, tuple(sorted(closure)))


def conjugation_action(group: FiniteGroup, g: int, sub: Subgroup) -> GroupHom:
    """The automorphism ad(g): x ↦ g·x·g⁻¹ of a g-normalized subgroup."""
    if sub.group is not group:
        raise GroupError("subgroup belongs to a different group")
    elts = set(sub.elements)
    conj = {x: group.conj(g, x) for x in sub.elements}
    if set(conj.values()) != elts:
        bad = next(x for x in sub.elements if conj[x] not in elts)
        raise GroupError(
            f"conjugation by {group.label(g)} does not normalize the subgroup "
            f"(moves {group.label(bad)} outside)")
    local, embed = sub.as_group()
    back = {e: k for k, e in embed.items()}
    mapping = tuple(back[conj[embed[k]]] for k in range(local.order))
    return GroupHom(local, local, mapping)


def coset_data(group: FiniteGroup, sub_elements: Sequence[int]
               ) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """Transversal data for the cosets g·H of a subgroup H, computed once
    per subgroup and kept on the group (callers must not change it).

    Returns (reps, decompose) where reps lists the minimal-index
    representative of each coset and decompose[g] = (r, h) with g = r·h,
    h ∈ H, r the representative of g's coset.
    """
    key = frozenset(sub_elements)
    data = group._facts.get(key)
    if data is not None:
        return data
    t = group.table
    times_h = _gather(sorted(key))
    seen: dict[int, tuple[int, int]] = {}
    reps = []
    for g, row in enumerate(t):
        if g in seen:
            continue
        coset = sorted(times_h(row))
        r = coset[0]
        reps.append(r)
        r_inv_row = t[group.inverses[r]]
        for x in coset:
            seen[x] = (r, r_inv_row[x])
    data = group._facts[key] = (tuple(reps), seen)
    return data


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing cyclic subgroups under joins.

    <H, g> = <H, gh> for every h in H, so each subgroup H is joined with
    one element per left coset gH other than H itself."""
    seen: dict[tuple[int, ...], Subgroup] = {}
    trivial = Subgroup(group, (group.identity,))
    seen[trivial.elements] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            covered = set(sub.elements)
            for g in range(group.order):
                if g in covered:
                    continue
                covered.update(group.mul(g, h) for h in sub.elements)
                bigger = subgroup_closure(group, sub.elements + (g,))
                if bigger.elements not in seen:
                    seen[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


def _generating_sequence(group: FiniteGroup) -> list[int]:
    """A short ordered generating sequence, chosen greedily by closure growth."""
    chosen: list[int] = []
    reached = {group.identity}
    while len(reached) < group.order:
        best, best_closure = -1, reached
        for g in range(group.order):
            if g in reached:
                continue
            closure = set(subgroup_closure(group, chosen + [g]).elements)
            if len(closure) > len(best_closure):
                best, best_closure = g, closure
                if len(closure) == group.order:
                    break
        chosen.append(best)
        reached = best_closure
    return chosen


def _homs_by_images(src: FiniteGroup, tgt: FiniteGroup) -> Iterator[GroupHom]:
    """Every injective homomorphism src → tgt.

    Images h_1, h_2, ..., each of the order of its g_k, are picked in index
    order for the generating sequence g_1, g_2, ...; each new h_k is spread
    over <g_1..g_k> along that prefix's Cayley tree, and the branch is kept
    only if φ(x·g_i) = φ(x)·h_i for every x in <g_1..g_k> and every i <= k,
    which makes φ a homomorphism there, and if φ is one-to-one there.
    Between groups of equal order these are the isomorphisms.
    """
    gens = _generating_sequence(src)
    orders = src.element_orders()
    candidates = [[h for h, o in enumerate(tgt.element_orders())
                   if o == orders[g]] for g in gens]
    table = tgt.table
    levels = []
    for k in range(1, len(gens) + 1):
        tree = _cayley_tree(src, gens[:k])
        nodes = [src.identity] + [y for _, _, y in tree]
        edges = [(x, i, src.mul(x, g)) for x in nodes
                 for i, g in enumerate(gens[:k])]
        levels.append((tree, nodes, edges))
    phi = [-1] * src.order
    phi[src.identity] = tgt.identity
    images: list[int] = []

    def consistent(k: int) -> bool:
        tree, nodes, edges = levels[k]
        for x, i, y in tree:
            phi[y] = table[phi[x]][images[i]]
        for x, i, y in edges:
            if phi[y] != table[phi[x]][images[i]]:
                return False
        return len({phi[x] for x in nodes}) == len(nodes)

    def rec(k: int) -> Iterator[GroupHom]:
        if k == len(gens):
            yield GroupHom(src, tgt, tuple(phi))
            return
        for h in candidates[k]:
            images.append(h)
            if consistent(k):
                yield from rec(k + 1)
            images.pop()

    yield from rec(0)


def all_monomorphisms(src: FiniteGroup, tgt: FiniteGroup) -> list[GroupHom]:
    """Every injective homomorphism src → tgt."""
    if tgt.order % src.order != 0:
        return []
    return list(_homs_by_images(src, tgt))


def isomorphisms_iter(g1: FiniteGroup, g2: FiniteGroup) -> Iterator[GroupHom]:
    if g1.order != g2.order or sorted(g1.element_orders()) != sorted(g2.element_orders()):
        return
    yield from _homs_by_images(g1, g2)


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup,
                   cap: int = 64) -> Optional[GroupHom]:
    """An isomorphism g1 → g2, or None. Refuses orders above the cap."""
    if max(g1.order, g2.order) > cap:
        raise GroupError(f"isomorphism search capped at order {cap}")
    return next(isomorphisms_iter(g1, g2), None)


# -- constructors ---------------------------------------------------------


def build_cyclic(n: int, name: str = "g") -> FiniteGroup:
    """Z/n with one generator; index k is generator^k."""
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [name if k == 1 else f"{name}^{k}" for k in range(1, n)]
    gens = {name: 1 % n} if n > 1 else {name: 0}
    return FiniteGroup._built(table, gens, labels)


def build_boolean_vectors(k: int, names: Optional[Sequence[str]] = None
                          ) -> FiniteGroup:
    """(Z/2)^k with elements encoded as k-bit vectors (index = bitmask).

    Generator e_j is the basis vector with bit j-1 set; the default names
    are e1..ek.
    """
    if k < 1:
        raise GroupError("need at least one basis vector")
    n = 1 << k
    table = [[i ^ j for j in range(n)] for i in range(n)]
    if names is None:
        names = [f"e{j}" for j in range(1, k + 1)]
    if len(names) != k:
        raise GroupError("need one name per basis vector")
    if len(set(names)) != k:
        raise GroupError("basis vector names must be distinct")
    labels = []
    for v in range(n):
        parts = [names[j] for j in range(k) if v >> j & 1]
        labels.append("+".join(parts) if parts else "1")
    gens = {names[j]: 1 << j for j in range(k)}
    return FiniteGroup._built(table, gens, labels)


def _is_automorphism_perm(group: FiniteGroup, perm: Sequence[int]) -> bool:
    return (sorted(perm) == list(range(group.order))
            and check_hom(GroupHom(group, group, tuple(perm))).is_hom)


def build_semidirect(c: FiniteGroup, q: FiniteGroup,
                     action: dict[str, Sequence[int]]) -> FiniteGroup:
    """C ⋊ Q for an action of Q on C by automorphisms.

    action maps each generator name of Q to a permutation of C's elements;
    the assignment is extended along words in Q and verified to be a
    homomorphism Q → Aut(C). Elements are pairs (c, q) encoded as
    index = c·|Q| + q, multiplied by (c,q)(c',q') = (c·action(q)(c'), qq').

    The table is built a row at a time in C: row (c, q) is, for each c'
    in turn, the run runs[q][c·action(q)(c')], where runs[q][c''] is
    c''·|Q| + (row q of Q).
    """
    if set(action) != set(q.generators):
        raise GroupError("action must be given on exactly Q's generators")
    for name, perm in action.items():
        if not _is_automorphism_perm(c, perm):
            raise GroupError(f"action of {name!r} is not an automorphism of C")
    # extend q ↦ action(q) along the Cayley tree; composition is
    # rightmost-first
    names = sorted(action)
    perms = [tuple(action[n]) for n in names]
    acts: dict[int, tuple[int, ...]] = {q.identity: tuple(range(c.order))}
    for x, k, y in _cayley_tree(q, [q.generators[n] for n in names]):
        acts[y] = _gather(perms[k])(acts[x])
    after = [_gather(acts[q2]) for q2 in range(q.order)]
    for q1, qrow in enumerate(q.table):
        a1 = acts[q1]
        if any(acts[q12] != a1_a2(a1) for q12, a1_a2 in zip(qrow, after)):
            raise GroupError("action is not a homomorphism Q → Aut(C)")
    nq = q.order
    runs = [[tuple(map((cc * nq).__add__, qrow)) for cc in range(c.order)]
            for qrow in q.table]
    table = [tuple(chain.from_iterable(map(runs[qi].__getitem__,
                                           after[qi](crow))))
             for crow in c.table for qi in range(nq)]
    gens = {name: idx * nq + q.identity for name, idx in c.generators.items()}
    for name, idx in q.generators.items():
        if name in gens:
            raise GroupError(f"generator name {name!r} appears in both factors")
        gens[name] = c.identity * nq + idx
    labels = [lq if ci == c.identity else lc if qi == q.identity
              else f"{lc}·{lq}"
              for ci, lc in enumerate(c.labels)
              for qi, lq in enumerate(q.labels)]
    return FiniteGroup._built(table, gens, labels)


def build_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G × H via the trivial action."""
    trivial = {name: tuple(range(g.order)) for name in h.generators}
    return build_semidirect(g, h, trivial)


def build_dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: ⟨a,b | a^{2n}=1, b²=aⁿ, b⁻¹ab=a⁻¹⟩.

    n = 2 gives the quaternion group Q8.
    """
    if n < 1:
        raise GroupError("dicyclic parameter must be positive")
    m = 2 * n
    size = 4 * n

    def idx(k: int, j: int) -> int:  # a^k b^j with j in {0,1}
        return k % m + (m if j else 0)

    table = [[0] * size for _ in range(size)]
    for k in range(m):
        for l in range(m):
            table[idx(k, 0)][idx(l, 0)] = idx(k + l, 0)
            table[idx(k, 0)][idx(l, 1)] = idx(k + l, 1)
            table[idx(k, 1)][idx(l, 0)] = idx(k - l, 1)
            table[idx(k, 1)][idx(l, 1)] = idx(k - l + n, 0)
    labels = []
    for j in (0, 1):
        for k in range(m):
            base = "1" if k == 0 else ("a" if k == 1 else f"a^{k}")
            labels.append(base if j == 0 else ("b" if k == 0 else f"{base}·b"))
    return FiniteGroup._built(table, {"a": idx(1, 0), "b": idx(0, 1)},
                              labels)


def group_from_permutations(perms: dict[str, Sequence[int]]) -> FiniteGroup:
    """The permutation group generated by named permutations.

    Permutations are tuples over 0..d-1 and multiply rightmost-first:
    (p*q)(i) = p[q[i]]. The identity gets index 0; labels use cycle
    notation on the moved points. A closure past MAX_GROUP_ORDER elements
    is an error, raised before any table is built.
    """
    if not perms:
        raise GroupError("need at least one permutation")
    degree = len(next(iter(perms.values())))
    items = {}
    for name, p in perms.items():
        p = tuple(p)
        if sorted(p) != list(range(degree)):
            raise GroupError(f"{name!r} is not a permutation of 0..{degree - 1}")
        items[name] = p
    ident = tuple(range(degree))
    elts = [ident]
    pos = {ident: 0}
    frontier = [ident]
    while frontier:
        if len(elts) > MAX_GROUP_ORDER:
            raise GroupError(f"permutations generate more than "
                             f"{MAX_GROUP_ORDER} elements, the order cap")
        nxt = []
        for x in frontier:
            after_x = _gather(x)
            for p in items.values():
                y = after_x(p)  # p * x
                if y not in pos:
                    pos[y] = len(elts)
                    elts.append(y)
                    nxt.append(y)
                z = _gather(p)(x)  # x * p
                if z not in pos:
                    pos[z] = len(elts)
                    elts.append(z)
                    nxt.append(z)
        frontier = nxt
    # column b holds a * b for every a; zip turns the columns into rows
    table = list(zip(*(map(pos.__getitem__, map(_gather(b), elts))
                       for b in elts)))
    labels = [cycle_notation(p) for p in elts]
    gens = {name: pos[p] for name, p in items.items()}
    return FiniteGroup._built(table, gens, labels)


def cycle_notation(perm: Sequence[int], point_names: Optional[Sequence[str]] = None
                   ) -> str:
    """Cycle notation of a permutation, omitting fixed points."""
    if point_names is None:
        point_names = [str(i) for i in range(len(perm))]
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        out.append("(" + " ".join(point_names[i] for i in cyc) + ")")
    return "".join(out) if out else "()"


def basis_cycle_perm(spec: str, k: int) -> tuple[int, ...]:
    """Parse cycle notation over basis vectors e1..ek of (Z/2)^k.

    "(e1 e2)(e3 e4)" denotes the linear map permuting the named basis
    vectors and fixing the rest; the result is the induced permutation of
    all 2^k bit vectors.
    """
    spec = spec.strip()
    basis_map = list(range(k))
    if spec not in ("", "()", "id"):
        depth = 0
        cycles: list[list[int]] = []
        cur: list[str] = []
        tok = ""
        for ch in spec:
            if ch == "(":
                if depth:
                    raise GroupError("nested parentheses in cycle notation")
                depth, cur, tok = 1, [], ""
            elif ch == ")":
                if not depth:
                    raise GroupError("unbalanced parentheses in cycle notation")
                if tok:
                    cur.append(tok)
                    tok = ""
                depth = 0
                cycles.append([_basis_index(t, k) for t in cur])
            elif ch.isspace():
                if tok:
                    cur.append(tok)
                    tok = ""
            else:
                if not depth:
                    raise GroupError(f"unexpected character {ch!r} in cycle notation")
                tok += ch
        if depth:
            raise GroupError("unbalanced parentheses in cycle notation")
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                basis_map[a] = b
        flat = [i for cyc in cycles for i in cyc]
        if len(flat) != len(set(flat)):
            raise GroupError("repeated basis vector in cycle notation")
    return basis_matrix_perm(
        [[1 if basis_map[j] == i else 0 for j in range(k)] for i in range(k)], k)


def _basis_index(token: str, k: int) -> int:
    if not token.startswith("e"):
        raise GroupError(f"expected basis vector like e1, got {token!r}")
    try:
        j = int(token[1:])
    except ValueError:
        raise GroupError(f"expected basis vector like e1, got {token!r}") from None
    if not 1 <= j <= k:
        raise GroupError(f"basis vector {token!r} out of range for k={k}")
    return j - 1


def basis_matrix_perm(rows: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The permutation of (Z/2)^k bit vectors induced by a k×k F₂ matrix.

    Vectors are bitmasks with bit j-1 = e_j; v ↦ M·v with
    (Mv)_i = ⊕_j M[i][j]·v_j. The matrix must be invertible.
    """
    if len(rows) != k or any(len(r) != k for r in rows):
        raise GroupError(f"need a {k}×{k} matrix")
    cols = [sum((rows[i][j] & 1) << i for i in range(k)) for j in range(k)]
    out = []
    for v in range(1 << k):
        w = 0
        for j in range(k):
            if v >> j & 1:
                w ^= cols[j]
        out.append(w)
    if sorted(out) != list(range(1 << k)):
        raise GroupError("matrix is not invertible over F₂")
    return tuple(out)


# -- words and JSON ---------------------------------------------------------


def evaluate_word(group: FiniteGroup, text: str) -> int:
    """Evaluate a whitespace-separated word in generator names.

    Tokens may carry an integer exponent suffix like a^-1 or b^3; the empty
    word is the identity.
    """
    acc = group.identity
    for token in text.split():
        name, caret, exp = token.partition("^")
        if not name:
            raise GroupError(f"malformed token {token!r}")
        if name not in group.generators:
            raise GroupError(f"unknown generator {name!r}")
        power = 1
        if caret:
            try:
                power = int(exp)
            except ValueError:
                raise GroupError(f"malformed exponent in {token!r}") from None
        acc = group.mul(acc, group.power(group.generators[name], power))
    return acc


def generator_word(group: FiniteGroup, idx: int) -> str:
    """A shortest word in the generators equal to the given element.

    Deterministic: the path to the element in the Cayley tree of the
    generators in sorted-name order (see _cayley_tree); empty string for
    the identity.
    """
    if not 0 <= idx < group.order:
        raise GroupError(f"element index {idx} out of range")
    names = sorted(group.generators)
    parent = {y: (x, k) for x, k, y in
              _cayley_tree(group, [group.generators[n] for n in names])}
    letters = []
    while idx != group.identity:
        idx, k = parent[idx]
        letters.append(names[k])
    return " ".join(reversed(letters))


def group_to_json(group: FiniteGroup) -> dict:
    """Serialize as an explicit multiplication table."""
    return {"kind": "table",
            "table": [list(row) for row in group.table],
            "generators": dict(group.generators),
            "labels": list(group.labels)}


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", tuple: "a list",
               dict: "an object", type(None): "null"}

DOCUMENTS = frozenset({"group", "graph of groups", "report", "marking JSON",
                       "measure JSON", "parameter JSON"})
"""The names of the JSON documents vfree reads.  A field error names its
place: the document's name at its top, else the path to the object that
holds the field, such as vertices[0].group (see _field)."""

_REQUIRED = object()


def _typed(val, want: str, where: str, error: type = GroupError):
    """val itself, if its JSON type is `want`; else an error naming where."""
    got = _JSON_TYPES.get(type(val), type(val).__name__)
    if got != want:
        raise error(f"{where} is not {want} (got {got})")
    return val


def _typed_list(val, want: type, where: str, error: type = GroupError) -> list:
    """A JSON list whose entries all have the exact type `want`; group
    tables are checked with this, so the scan stays in C."""
    if not set(map(type, _typed(val, "a list", where, error))) <= {want}:
        i = next(i for i, x in enumerate(val) if type(x) is not want)
        _typed(val[i], _JSON_TYPES[want], f"{where}[{i}]", error)
    return val


def _place(where: str, key: str) -> str:
    """The path of the field key of the object at where: the key alone at
    the top of a document, else where.key."""
    return key if where in DOCUMENTS else f"{where}.{key}"


def _name(where: str, key: str) -> str:
    """The field key of the object at where as its errors name it:
    field 'key' at the top of a document, where.key below it."""
    return f"field {key!r}" if where in DOCUMENTS else f"{where}.{key}"


def _field(data: dict, key: str, want: str, where: str,
           default=_REQUIRED, of: Optional[type] = None,
           error: type = GroupError):
    """The field data[key] of the JSON object at where (a document name or
    a path), checked to have JSON type `want`, and when `of` is given to
    be a list of entries of exact type `of`.  A missing field is default,
    or else raises `<where> has no field 'key'`; a mistyped one raises
    `field 'key' is not ...` at the top of a document and `<where>.key is
    not ...` below it, with the JSON type it had."""
    if key not in data:
        if default is _REQUIRED:
            raise error(f"{where} has no field {key!r}")
        return default
    val = _typed(data[key], want, _name(where, key), error)
    return val if of is None else _typed_list(val, of, _place(where, key),
                                              error)


def _check_order(what: str, order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise GroupError(f"{what} {order} is above the order cap "
                         f"{MAX_GROUP_ORDER}")


def _action_perm(c: FiniteGroup, spec, where: str) -> tuple[int, ...]:
    """Interpret a JSON action value as a permutation of C's elements.

    Accepts cycle notation over basis vectors (C must be (Z/2)^k with
    index = bitmask), a k×k F₂ matrix, or an explicit permutation list.
    """
    if isinstance(spec, str):
        return basis_cycle_perm(spec, _bitmask_rank(c, "cycle-notation",
                                                    where))
    if isinstance(spec, (list, tuple)):
        if spec and isinstance(spec[0], (list, tuple)):
            k = _bitmask_rank(c, "matrix", where)
            for i, row in enumerate(spec):
                _typed_list(row, int, f"{where}[{i}]")
            return basis_matrix_perm(spec, k)
        return tuple(_typed_list(spec, int, where))
    raise GroupError(f"cannot interpret {where} = "
                     f"{json.dumps(spec, default=repr)}")


def _bitmask_rank(c: FiniteGroup, kind: str, where: str) -> int:
    """k, when C is (Z/2)^k with index = bitmask (c.table[i][j] == i ^ j),
    the only factor on which an action given over basis vectors is read;
    otherwise a GroupError naming where and the kind of action."""
    k = c.order.bit_length() - 1
    if 1 << k != c.order or any(row != tuple(map(i.__xor__, range(c.order)))
                                for i, row in enumerate(c.table)):
        raise GroupError(f"{where} is a {kind} action, which needs a "
                         "(Z/2)^k factor with index = bitmask")
    return k


def group_from_json(data) -> FiniteGroup:
    """Build a finite group from a JSON description, or from its text.

    Kinds: {"kind":"cyclic","n":4[,"name":"a"]},
    {"kind":"boolean","k":4[,"names":[...]]},
    {"kind":"semidirect","c":...,"q":...,"action":{gen: spec}},
    {"kind":"direct","factors":[...,...]},
    {"kind":"dicyclic","n":2},
    {"kind":"permutations","perms":{name:[...]}},
    {"kind":"table","table":[[...]],"generators":{...}[,"labels":[...]]}.
    Every field is read by _field, so a missing or mistyped one is named
    by its place.  A group may have at most MAX_GROUP_ORDER elements (and
    a permutation at most that many points); the order is checked before
    any table is built.
    """
    if isinstance(data, str):
        data = json.loads(data)
    return _group_at(_typed(data, "an object", "group"), "group")


def _group_at(data: dict, where: str) -> FiniteGroup:
    """The group the JSON object data at where describes: where is the
    document name "group" or the path to data, and names the fields of
    data and of the groups inside it in errors."""
    def field(key, want, default=_REQUIRED, of=None):
        return _field(data, key, want, where, default, of)

    kind = field("kind", "a string")
    if kind == "cyclic":
        n = field("n", "an integer")
        _check_order("cyclic order", n)
        return build_cyclic(n, field("name", "a string", default="g"))
    if kind == "boolean":
        k = field("k", "an integer")
        if k >= MAX_GROUP_ORDER.bit_length():
            raise GroupError(f"boolean order 2^{k} is above the order "
                             f"cap {MAX_GROUP_ORDER}")
        names = field("names", "a list", default=None, of=str)
        return build_boolean_vectors(k, names)
    if kind == "semidirect":
        c, q = (_group_at(field(key, "an object"), _place(where, key))
                for key in "cq")
        _check_order("semidirect product order", c.order * q.order)
        action = _place(where, "action")
        return build_semidirect(c, q, {
            name: _action_perm(c, spec, f"{action}[{name!r}]")
            for name, spec in field("action", "an object").items()})
    if kind == "direct":
        factors = [_group_at(f, f"{_place(where, 'factors')}[{i}]")
                   for i, f in enumerate(field("factors", "a list", of=dict))]
        if len(factors) < 2:
            raise GroupError("direct product needs at least two factors")
        _check_order("direct product order",
                     math.prod(f.order for f in factors))
        out = factors[0]
        for f in factors[1:]:
            out = build_direct_product(out, f)
        return out
    if kind == "dicyclic":
        n = field("n", "an integer")
        _check_order("dicyclic order", 4 * n)
        return build_dicyclic(n)
    if kind == "permutations":
        perms = field("perms", "an object")
        for name, p in perms.items():
            place = f"{_place(where, 'perms')}[{name!r}]"
            _typed_list(p, int, place)
            _check_order(f"{place} degree", len(p))
        return group_from_permutations(
            {name: tuple(p) for name, p in perms.items()})
    if kind == "table":
        table = field("table", "a list")
        _check_order("table order", len(table))
        for i, row in enumerate(table):
            _typed_list(row, int, f"{_place(where, 'table')}[{i}]")
        gens = field("generators", "an object")
        for name, idx in gens.items():
            _typed(idx, "an integer",
                   f"{_place(where, 'generators')}[{name!r}]")
        labels = field("labels", "a list", default=None, of=str)
        return FiniteGroup(table, gens, labels)
    raise GroupError(f"unknown group kind {kind!r}")
