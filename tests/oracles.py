"""Independent ground-truth oracles used by the test suite.

The rewriting closure works on plain letter strings with union-find, and
the matrix oracles use exact 2x2 integer arithmetic; neither imports the
library's word machinery.  The whole-path product is the library's
earlier product: it reduces the full concatenation from scratch, so it
checks the seam-local product without sharing its resume logic.  It
reduces with the reducer by traversals, the library's earlier reducer,
which looks up each traversal's push and pinch tables by key and reads
its ends from the edges, so it shares no code with the library's reducer
over compiled traversal records and judges it.  The scanning closure
is the rewriting closure's earlier construction, which tries every rule
at every position of every word, so it judges the rule-first
construction on integer-coded words.  The table checks at
the end are the library's earlier group validation, triple by triple,
kept to judge the generator-based check that replaced it.  The entry-by-
entry table scans are the library's earlier identity and inverse
searches, homomorphism check, coset decomposition and permutation
product table, which look at one table entry at a time, so they judge
the versions that compare and compose whole rows; so does the semidirect
product by entries, the library's earlier build_semidirect, which judges
the one that builds a row from runs.  The subgroup lattice by every
element is the library's earlier all_subgroups, which joins each
subgroup with every element outside it.
The two-pass parser is the library's earlier parse_word: it expands
letters into items first and turns the items into a raw path word
second, so it judges the one-pass parser that replaced it.  The
homomorphism search by pairwise closure is the library's earlier search:
it closes each partial map under all products of pairs, so it judges the
search that spreads generator images along a Cayley tree.  The product
closure of based elements is the fold engine's earlier stabilizer
closure: it multiplies every pair of normal forms until nothing new
appears, so it judges the closure that runs in a vertex group's table.
The cyclic reduction by products is the library's earlier peel loop: it
rebuilds the conjugator with one product per peeled syllable, so it judges
the loop that only moves an index.  The experiment by re-walking is the
library's earlier random-walk experiment: it walks every trial again from
the identity for each requested length, so it judges the experiment that
walks each trial once.  The walk by segments is the library's earlier
walk loop: it draws with randrange, joins the picks between two lengths
into one raw path word and reduces that word onto the walk with one
_reduce_into call, so it judges the walk that reads batched draws and
pushes compiled picks.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction

import vfree.fingroup as fg
import vfree.genericity as gen
import vfree.gogwords as gw


def inverse_word(w: str, inverse: dict[str, str]) -> str:
    return "".join(inverse[ch] for ch in reversed(w))


class RewritingClosure:
    """Exhaustive rewriting closure of the word problem on short words.

    Universe: all strings over the alphabet up to max_len. Relators are
    closed under inversion and rotation and split into replacement rules
    u -> v with len(v) <= len(u); union-find joins x u y with x v y for
    every rule and all words x, y with len(xuy) <= max_len. Any
    identification that momentarily lengthens a word is still found, from
    the longer side.

    The joins run rule first on integer-coded words: with the alphabet
    numbered 0..A-1, the word c_1..c_L is universe entry
    offset[L] + (c_1..c_L read in base A), so for fixed x the words x u y
    are one run of consecutive entries, as are the words x v y.
    """

    def __init__(self, alphabet: str, inverse: dict[str, str],
                 relators: list[str], max_len: int):
        self.alphabet = alphabet
        self.inverse = dict(inverse)
        self.max_len = max_len

        closed: set[str] = set()
        stack = list(relators) + [x + inverse[x] for x in alphabet]
        while stack:
            r = stack.pop()
            if not r or r in closed:
                continue
            closed.add(r)
            stack.append(inverse_word(r, inverse))
            stack.append(r[1:] + r[0])
        rules: dict[str, set[str]] = {}
        for r in closed:
            for k in range(1, len(r) + 1):
                u, repl = r[:k], inverse_word(r[k:], inverse)
                if len(repl) <= len(u) and repl != u:
                    rules.setdefault(u, set()).add(repl)
        self.rules = {u: sorted(vs) for u, vs in rules.items()}
        self.rule_lengths = sorted({len(u) for u in rules})

        self.universe: list[str] = [""]
        for length in range(1, max_len + 1):
            self.universe.extend(
                "".join(p) for p in itertools.product(alphabet, repeat=length))
        self._code = {ch: k for k, ch in enumerate(alphabet)}
        self._offset = [0]
        for length in range(max_len):
            self._offset.append(self._offset[-1] + len(alphabet) ** length)
        self._parent = list(range(len(self.universe)))
        self._identify()

    def _number(self, w: str) -> int:
        """The word w read as a number in base len(alphabet)."""
        n = 0
        for ch in w:
            n = n * len(self.alphabet) + self._code[ch]
        return n

    def index(self, w: str) -> int:
        """The universe entry of the word w."""
        return self._offset[len(w)] + self._number(w)

    def _identify(self) -> None:
        base, offset = len(self.alphabet), self._offset
        parent = self._parent
        for u, repls in self.rules.items():
            for v in repls:
                cu, cv = self._number(u), self._number(v)
                for i in range(self.max_len - len(u) + 1):
                    for j in range(self.max_len - len(u) - i + 1):
                        span = base ** j
                        for x in range(base ** i):
                            wu = offset[i + len(u) + j] + \
                                (x * base ** len(u) + cu) * span
                            wv = offset[i + len(v) + j] + \
                                (x * base ** len(v) + cv) * span
                            for a, b in zip(range(wu, wu + span),
                                            range(wv, wv + span)):
                                while parent[a] != a:
                                    parent[a] = parent[parent[a]]
                                    a = parent[a]
                                while parent[b] != b:
                                    parent[b] = parent[parent[b]]
                                    b = parent[b]
                                if a != b:
                                    parent[b] = a

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def _union(self, w1: str, w2: str) -> None:
        a, b = self._find(self.index(w1)), self._find(self.index(w2))
        if a != b:
            self._parent[b] = a

    def root(self, w: str) -> int:
        return self._find(self.index(w))

    def same(self, w1: str, w2: str) -> bool:
        return self.root(w1) == self.root(w2)

    def is_identity(self, w: str) -> bool:
        return self.same(w, "")

    def partition(self) -> list[int]:
        """For each universe entry, the least index in its class."""
        least: dict[int, int] = {}
        return [least.setdefault(self._find(i), i)
                for i in range(len(self.universe))]


class ScanningClosure(RewritingClosure):
    """The same closure built by the earlier scan: every position of every
    word is tried against every rule length, on letter strings."""

    def _identify(self) -> None:
        for w in self.universe:
            n = len(w)
            for i in range(n):
                for ulen in self.rule_lengths:
                    if i + ulen > n:
                        break
                    repls = self.rules.get(w[i:i + ulen])
                    if repls:
                        for repl in repls:
                            self._union(w, w[:i] + repl + w[i + ulen:])


# -- exact 2x2 integer matrix oracles ---------------------------------------

MAT_I = (1, 0, 0, 1)
MAT_S = (0, -1, 1, 0)           # order 4
MAT_ST = (0, -1, 1, 1)          # order 6
MAT_S_INV = (0, 1, -1, 0)
MAT_ST_INV = (1, 1, -1, 0)


def mat_mul(m: tuple, n: tuple) -> tuple:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_of_word(w: str, assign: dict[str, tuple]) -> tuple:
    out = MAT_I
    for ch in w:
        out = mat_mul(out, assign[ch])
    return out


SL2Z_ASSIGN = {"a": MAT_S, "A": MAT_S_INV, "b": MAT_ST, "B": MAT_ST_INV}
PSL2_ASSIGN = {"s": MAT_S, "t": MAT_ST, "T": MAT_ST_INV}


def sl2z_is_identity(w: str) -> bool:
    """Word in letters a, A, b, B; true exact equality in SL2(Z)."""
    return mat_of_word(w, SL2Z_ASSIGN) == MAT_I


def sl2z_matrix(w: str) -> tuple:
    return mat_of_word(w, SL2Z_ASSIGN)


def psl2_is_identity(w: str) -> bool:
    """Word in letters s, t, T; equality in PSL2(Z) = Z/2 * Z/3."""
    m = mat_of_word(w, PSL2_ASSIGN)
    return m == MAT_I or m == (-1, 0, 0, -1)


def psl2_matrix_up_to_sign(w: str) -> tuple:
    m = mat_of_word(w, PSL2_ASSIGN)
    neg = (-m[0], -m[1], -m[2], -m[3])
    return min(m, neg)


def sl2z_closure(max_len: int, build=RewritingClosure) -> RewritingClosure:
    return build("aAbB", {"a": "A", "A": "a", "b": "B", "B": "b"},
                 ["aaaa", "bbbbbb", "aaBBB"], max_len)


def psl2_closure(max_len: int, build=RewritingClosure) -> RewritingClosure:
    return build("stT", {"s": "s", "t": "T", "T": "t"}, ["ss", "ttt"],
                 max_len)


def mat_order(m: tuple, cap: int = 12):
    """Multiplicative order of a 2x2 integer matrix, or None if above cap."""
    p = m
    for k in range(1, cap + 1):
        if p == MAT_I:
            return k
        p = mat_mul(p, m)
    return None


# -- whole-path product ------------------------------------------------------


def reduce_by_traversals(gog, start, raw_steps, raw_tail):
    """The normal form of a raw path word from start, (element, traversal)
    steps plus tail, reduced step by step through the Traversal-keyed push
    and pinch tables, with each edge's ends read from gog.edges."""

    def ends(t):
        e = gog.edges[t.edge].ends
        return e[t.dir], e[1 - t.dir]

    out = []
    v = start
    grp = gog.vertices[v]
    acc = grp.identity
    for g, t in raw_steps:
        if ends(t)[0] != v:
            raise gw.GogError(f"traversal {t} does not start at {v!r}")
        if not 0 <= g < grp.order:
            raise gw.GogError(f"element index {g} out of range at {v!r}")
        acc = grp.mul(acc, g)
        pinch = gog._crossing[t].pinch
        if out and out[-1][1] == t.reverse() and acc in pinch:
            far_elt = pinch[acc]
            r_prev, t_prev = out.pop()
            v = ends(t_prev)[0]
            grp = gog.vertices[v]
            acc = grp.mul(r_prev, far_elt)
        else:
            r, far_elt = gog._crossing[t].push[acc]
            out.append((r, t))
            v = ends(t)[1]
            grp = gog.vertices[v]
            acc = far_elt
    if not 0 <= raw_tail < grp.order:
        raise gw.GogError(f"tail index {raw_tail} out of range at {v!r}")
    return gw.NormalForm(start, tuple(out), grp.mul(acc, raw_tail))


def whole_path_multiply(gog, p, q):
    """p * q by reducing every step of the concatenated path again."""
    if gw.end_vertex(gog, p) != q.start:
        raise gw.GogError("paths are not composable")
    grp = gog.vertices[q.start]
    if not q.steps:
        return gw.NormalForm(p.start, p.steps, grp.mul(p.tail, q.tail))
    (g, t), rest = q.steps[0], q.steps[1:]
    raw = list(p.steps) + [(grp.mul(p.tail, g), t)] + list(rest)
    return reduce_by_traversals(gog, p.start, raw, q.tail)


# -- subgroup lattice, element by element ----------------------------------------


def all_subgroups_by_every_element(group):
    """Every subgroup, in all_subgroups' order: each subgroup found so far
    is joined with every element outside it."""
    seen = {}
    trivial = fg.Subgroup(group, (group.identity,))
    seen[trivial.elements] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in range(group.order):
                if g in set(sub.elements):
                    continue
                bigger = fg.subgroup_closure(group, sub.elements + (g,))
                if bigger.elements not in seen:
                    seen[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


# -- two-pass word parser ------------------------------------------------------


def _letter_items(gog, at, name, power):
    """Items realizing one letter with integer exponent from vertex `at`:
    Traversals and ("g", vertex, element) entries, and the new vertex."""
    items = []
    v = at
    homes = gog._letter_home.get(name)
    if _reads_edge(gog, name):
        if name in gog.spanning_tree:
            raise gw.GogError(
                f"{name!r} is a spanning-tree edge and carries no letter")
        if homes:
            raise gw.GogError(
                f"letter {name!r} is ambiguous between edge {name!r} and "
                f"the generator at vertices {homes}")
        e = gog.edges[name]
        for _ in range(abs(power)):
            d = 0 if power > 0 else 1
            items.extend(gog.tree_path(v, e.ends[d]))
            items.append(gw.Traversal(name, d))
            v = e.ends[1 - d]
        return items, v
    if not homes:
        raise gw.GogError(f"unknown letter {name!r}")
    if v in homes:
        home = v
    elif len(homes) == 1:
        home = homes[0]
    else:
        raise gw.GogError(
            f"letter {name!r} is ambiguous between vertices {homes}")
    grp = gog.vertices[home]
    idx = grp.generators[name]
    if power < 0:
        idx, power = grp.inv(idx), -power
    items.extend(gog.tree_path(v, home))
    items.append(("g", home, grp.power(idx, power)))
    return items, home


def _reads_edge(gog, name):
    """Whether a letter name reads as an edge: a spanning-tree edge
    carries no letter, so a generator of its name reads instead."""
    return name in gog.edges and not (name in gog.spanning_tree
                                      and name in gog._letter_home)


def _items_to_raw(gog, items):
    """Raw (element, traversal) steps and tail of a loop of items."""
    v = gog.base_vertex
    steps = []
    pending = gog.vertices[v].identity
    for item in items:
        if isinstance(item, gw.Traversal):
            if gog.near(item) != v:
                raise gw.GogError(f"traversal {item} does not start at {v!r}")
            steps.append((pending, item))
            v = gog.far(item)
            pending = gog.vertices[v].identity
        else:
            _, vid, idx = item
            if vid != v:
                raise gw.GogError(f"element at {vid!r} but path is at {v!r}")
            pending = gog.vertices[v].mul(pending, idx)
    if v != gog.base_vertex:
        raise gw.GogError("word is not a loop at the base vertex")
    return steps, pending


def two_pass_parse(gog, text):
    """Normal form of a word text: letters to items, items to a raw path
    word, then one reduction."""
    items = []
    v = gog.base_vertex
    traversals = 0
    for token in text.split():
        name, caret, exp = token.partition("^")
        if not name:
            raise gw.GogError(f"malformed token {token!r}")
        if caret:
            try:
                power = int(exp)
            except ValueError:
                raise gw.GogError(f"malformed exponent in {token!r}") from None
            if power == 0:
                continue
        else:
            power = 1
        if _reads_edge(gog, name):
            traversals += abs(power)
            if traversals > gw.MAX_WORD_TRAVERSALS:
                raise gw.GogError(f"letter {name!r} takes the word past "
                                  f"{gw.MAX_WORD_TRAVERSALS} edge traversals")
        new_items, v = _letter_items(gog, v, name, power)
        items.extend(new_items)
    items.extend(gog.tree_path(v, gog.base_vertex))
    steps, tail = _items_to_raw(gog, items)
    return gw.path_normal_form(gog, gog.base_vertex, steps, tail)


# -- group tables, triple by triple ------------------------------------------

ASSOC_EXHAUSTIVE_LIMIT = 64
ASSOC_SAMPLES = 20000


def associativity_failure(table, exhaustive_limit=ASSOC_EXHAUSTIVE_LIMIT):
    """The first triple (a, b, c) with (ab)c != a(bc), or None.

    Every triple is tried up to order exhaustive_limit; above it only the
    seeded sample of ASSOC_SAMPLES triples that FiniteGroup once used.
    """
    n = len(table)
    if n <= exhaustive_limit:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0x5EED)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(ASSOC_SAMPLES))
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def is_group_generated_by(table, gens) -> bool:
    """Whether the square table over 0..n-1 is a group, associative on
    every triple, that the indices in gens generate (multiplicative
    closure, which in a finite group is the generated subgroup)."""
    n = len(table)
    if any(len(row) != n or not all(0 <= v < n for v in row)
           for row in table):
        return False
    ids = [e for e in range(n)
           if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(table[x][y] == e == table[y][x] for y in range(n))
               for x in range(n)):
        return False
    if associativity_failure(table, exhaustive_limit=n) is not None:
        return False
    if not all(0 <= g < n for g in gens):
        return False
    reached = {e, *gens}
    while True:
        new = {table[a][b] for a in reached for b in reached} - reached
        if not new:
            return len(reached) == n
        reached |= new


# -- group tables, entry by entry --------------------------------------------


def identity_by_scan(table):
    """The first e with e·x = x = x·e for every x, or None."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def inverses_by_scan(table, e):
    """(inverses, None), where inverses[x] is the first y with
    x·y = e = y·x, or (None, x) for the first x that has no such y."""
    n = len(table)
    inv = []
    for x in range(n):
        ys = [y for y in range(n) if table[x][y] == e and table[y][x] == e]
        if not ys:
            return None, x
        inv.append(ys[0])
    return tuple(inv), None


def check_hom_by_pairs(h):
    """check_hom over every pair (x, y) in row-major order, one product
    at a time."""
    src, tgt, m = h.source, h.target, h.mapping
    for x in range(src.order):
        for y in range(src.order):
            if m[src.mul(x, y)] != tgt.mul(m[x], m[y]):
                return fg.HomReport("invalid", (x, y))
    bijective = len(set(m)) == src.order == tgt.order
    return fg.HomReport("valid_iso" if bijective else "valid_hom")


def coset_data_by_products(group, sub_elements):
    """coset_data with one group.mul per coset entry and decomposition."""
    H = sorted(set(sub_elements))
    seen = {}
    reps = []
    for g in range(group.order):
        if g in seen:
            continue
        coset = sorted(group.mul(g, h) for h in H)
        r = coset[0]
        reps.append(r)
        r_inv = group.inv(r)
        for x in coset:
            seen[x] = (r, group.mul(r_inv, x))
    return tuple(reps), seen


def permutation_table_by_tuples(perms):
    """(elements, table) of the group the named permutations generate, in
    group_from_permutations' order, composing one point at a time; None if
    the closure passes fg.MAX_GROUP_ORDER elements."""
    degree = len(next(iter(perms.values())))
    ident = tuple(range(degree))
    elts = [ident]
    pos = {ident: 0}
    frontier = [ident]
    while frontier:
        if len(elts) > fg.MAX_GROUP_ORDER:
            return None
        nxt = []
        for x in frontier:
            for p in perms.values():
                for y in (tuple(p[x[i]] for i in range(degree)),
                          tuple(x[p[i]] for i in range(degree))):
                    if y not in pos:
                        pos[y] = len(elts)
                        elts.append(y)
                        nxt.append(y)
        frontier = nxt
    table = [[pos[tuple(a[b[i]] for i in range(degree))] for b in elts]
             for a in elts]
    return elts, table


def semidirect_by_entries(c, q, action):
    """build_semidirect filling one table entry at a time through an
    index encoder, as the library's earlier constructor did; it shares
    the action checks with the library, so error messages compare too."""
    if set(action) != set(q.generators):
        raise fg.GroupError("action must be given on exactly Q's generators")
    for name, perm in action.items():
        if not fg._is_automorphism_perm(c, perm):
            raise fg.GroupError(
                f"action of {name!r} is not an automorphism of C")
    names = sorted(action)
    perms = [tuple(action[n]) for n in names]
    acts = {q.identity: tuple(range(c.order))}
    for x, k, y in fg._cayley_tree(q, [q.generators[n] for n in names]):
        acts[y] = tuple(acts[x][perms[k][i]] for i in range(c.order))
    for q1 in range(q.order):
        for q2 in range(q.order):
            composed = tuple(acts[q1][acts[q2][i]] for i in range(c.order))
            if acts[q.mul(q1, q2)] != composed:
                raise fg.GroupError("action is not a homomorphism Q → Aut(C)")
    nq = q.order
    n = c.order * nq

    def enc(ci, qi):
        return ci * nq + qi

    table = []
    for ci in range(c.order):
        for qi in range(q.order):
            row = [0] * n
            aq = acts[qi]
            for cj in range(c.order):
                cc = c.mul(ci, aq[cj])
                for qj in range(q.order):
                    row[enc(cj, qj)] = enc(cc, q.mul(qi, qj))
            table.append(row)
    gens = {}
    for name, idx in c.generators.items():
        gens[name] = enc(idx, q.identity)
    for name, idx in q.generators.items():
        if name in gens:
            raise fg.GroupError(
                f"generator name {name!r} appears in both factors")
        gens[name] = enc(c.identity, idx)
    labels = []
    for ci in range(c.order):
        for qi in range(q.order):
            lc, lq = c.label(ci), q.label(qi)
            if ci == c.identity:
                labels.append(lq)
            elif qi == q.identity:
                labels.append(lc)
            else:
                labels.append(f"{lc}·{lq}")
    return fg.FiniteGroup(table, gens, labels)


# -- homomorphism search by pairwise closure -----------------------------------


def _closure(group, gens):
    """<gens> as a set, walking by x·g and x·g⁻¹."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.mul(x, g), group.mul(x, group.inv(g))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def _generating_sequence(group):
    """The library's greedy generating sequence: each step takes the
    least-index element whose closure with the chosen ones grows most."""
    chosen = []
    reached = {group.identity}
    while len(reached) < group.order:
        best, best_closure = -1, reached
        for g in range(group.order):
            if g in reached:
                continue
            closure = _closure(group, chosen + [g])
            if len(closure) > len(best_closure):
                best, best_closure = g, closure
                if len(closure) == group.order:
                    break
        chosen.append(best)
        reached = best_closure
    return chosen


def _extend_partial(src, tgt, phi, g, h, injective):
    """Extend a partial homomorphism (defined on a subgroup) by g → h,
    closing the domain under products of pairs; None on the first
    inconsistency (or collision, when injective)."""
    if g in phi:
        return phi if phi[g] == h else None
    phi = dict(phi)
    used = set(phi.values())
    if injective and h in used:
        return None
    phi[g] = h
    used.add(h)
    frontier = [g]
    while frontier:
        x = frontier.pop()
        fx = phi[x]
        for y, fy in list(phi.items()):
            for p, q in ((src.mul(x, y), tgt.mul(fx, fy)),
                         (src.mul(y, x), tgt.mul(fy, fx))):
                fp = phi.get(p)
                if fp is not None:
                    if fp != q:
                        return None
                else:
                    if injective and q in used:
                        return None
                    phi[p] = q
                    used.add(q)
                    frontier.append(p)
    return phi


def homs_by_closure(src, tgt, injective, surjective):
    """The library's earlier homomorphism search: generator images in
    index order, each choice closed under pairwise products."""
    gens = _generating_sequence(src)
    src_orders = src.element_orders()
    tgt_orders = tgt.element_orders()

    def rec(phi, k):
        if k == len(gens):
            if surjective and len(set(phi.values())) != tgt.order:
                return
            yield fg.GroupHom(src, tgt, tuple(phi[i] for i in range(src.order)))
            return
        g = gens[k]
        o = src_orders[g]
        for h in range(tgt.order):
            if injective:
                if tgt_orders[h] != o:
                    continue
            elif o % tgt_orders[h] != 0:
                continue
            ext = _extend_partial(src, tgt, phi, g, h, injective)
            if ext is not None:
                yield from rec(ext, k + 1)

    yield from rec({src.identity: tgt.identity}, 0)


def monomorphisms_by_closure(src, tgt):
    """all_monomorphisms, by the earlier search."""
    if tgt.order % src.order != 0:
        return []
    return list(homs_by_closure(src, tgt, injective=True, surjective=False))


def isomorphisms_by_closure(g1, g2):
    """isomorphisms_iter, by the earlier search, as a list."""
    if g1.order != g2.order or \
            sorted(g1.element_orders()) != sorted(g2.element_orders()):
        return []
    return list(homs_by_closure(g1, g2, injective=True, surjective=True))


def product_closure(gog, elements) -> frozenset:
    """The subgroup generated by based elements, closed under products of
    normal forms.  The elements must generate a finite subgroup, as those
    fixing one tree vertex do."""
    found = {gw.identity_nf(gog)}
    frontier = []
    for g in elements:
        for h in (g, gw.path_invert(gog, g)):
            if h not in found:
                found.add(h)
                frontier.append(h)
    while frontier:
        g = frontier.pop()
        for h in list(found):
            for p in (gw.path_multiply(gog, g, h), gw.path_multiply(gog, h, g)):
                if p not in found:
                    found.add(p)
                    frontier.append(p)
    return frozenset(found)


# -- cyclic reduction by products ----------------------------------------------


def cyclic_reduction_by_products(gog, w):
    """(conjugator, core) of a loop normal form: each peeled syllable is
    multiplied onto the conjugator."""
    cur = w
    conj = gw.identity_nf(gog, cur.start)
    while cur.steps:
        r1, t1 = cur.steps[0]
        rn, tn = cur.steps[-1]
        if t1 != tn.reverse():
            break
        seam = gog.vertices[cur.start].mul(cur.tail, r1)
        pinch = gog._crossing[t1].pinch
        if seam not in pinch:
            break
        new_anchor = gog.far(t1)
        new_tail = gog.vertices[new_anchor].mul(rn, pinch[seam])
        prefix = gw.NormalForm(cur.start, ((r1, t1),),
                               gog.vertices[new_anchor].identity)
        conj = gw.path_multiply(gog, conj, prefix)
        cur = gw.NormalForm(new_anchor, cur.steps[1:-1], new_tail)
    return conj, cur


# -- random-walk experiment, re-walking each length ------------------------------


def walk_from_identity(gog, spec, length, trial):
    """The element trial number `trial` reaches after `length` steps,
    walked from the identity."""
    fracs = [Fraction(w) for w in spec.weights]
    denom = math.lcm(*(f.denominator for f in fracs))
    cums = list(itertools.accumulate(int(f * denom) for f in fracs))
    rng = random.Random(gen.splitmix64(spec.seed, trial))
    cur = gw.identity_nf(gog)
    for _ in range(length):
        pick = spec.support[bisect.bisect_right(cums, rng.randrange(denom))]
        cur = gw.path_multiply(gog, cur, pick)
    return cur


def walk_by_segments(gog, spec, trial, lengths):
    """(n, element) for each of the distinct increasing lengths, as trial
    number `trial` reaches them.  The picks between two lengths are joined
    into one raw path word, each pick's tail folded into the first element
    of the next through the base vertex group's table, and that word is
    reduced onto the walk's steps with one _reduce_into call."""
    fracs = [Fraction(w) for w in spec.weights]
    denom = math.lcm(*(f.denominator for f in fracs))
    cums = list(itertools.accumulate(int(f * denom) for f in fracs))
    picks = [gw.normal_form(gog, pick) for pick in spec.support]
    rng = random.Random(gen.splitmix64(spec.seed, trial))
    base = gog.base_vertex
    identity = gog.vertices[base].identity
    table = gog.vertices[base].table
    steps, tail, done, out = [], identity, 0, []
    for n in lengths:
        raw, carry = [], identity
        for _ in range(n - done):
            pick = picks[bisect.bisect_right(cums, rng.randrange(denom))]
            if pick.steps:
                (r, t), rest = pick.steps[0], pick.steps[1:]
                raw.append((table[carry][r], t))
                raw += rest
                carry = pick.tail
            else:
                carry = table[carry][pick.tail]
        tail = gw._reduce_into(gog, steps, base, tail, raw, carry)[1]
        done = n
        out.append((n, gw.NormalForm(base, tuple(steps), tail)))
    return out


def experiment_by_rewalking(gog, spec, lengths):
    """(n, trials, hyperbolic count, filling count) per requested length,
    each trial walked again from the identity for every length."""
    rows = []
    for n in lengths:
        hyp = fil = 0
        for t in range(spec.trials):
            core = cyclic_reduction_by_products(
                gog, walk_from_identity(gog, spec, n, t))[1]
            if core.steps:
                hyp += 1
                fil += gen.fills(gog, core).fills
        rows.append((n, spec.trials, hyp, fil))
    return rows
