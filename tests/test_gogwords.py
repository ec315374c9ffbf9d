"""Tests for graphs of groups and normal-form arithmetic.

Ground truth comes from two independent oracles: an exhaustive rewriting
closure on letter strings (union-find, no library code) and exact 2x2
integer matrices for the two standard examples. The rewriting closure is
itself validated against the matrices before being used to judge the
library.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
import vfree.bstree as bt
import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.gogwords as gw
from vfree.cli import BUILTIN_GROUPS, main
from fixtures import (build_counterexample_gog, build_klein_hnn, build_z2_z3,
                      random_letter_word, seam_presentations)

SL2Z = gw.build_sl2z()
Z2Z3 = build_z2_z3()
SEAM = seam_presentations()


def nf(gog, text):
    return gw.normal_form(gog, gw.parse_word(gog, text))


SL2Z_LETTERS = {"a": nf(SL2Z, "a"), "A": nf(SL2Z, "a^-1"),
                "b": nf(SL2Z, "b"), "B": nf(SL2Z, "b^-1")}
Z2Z3_LETTERS = {"s": nf(Z2Z3, "s"), "t": nf(Z2Z3, "t"), "T": nf(Z2Z3, "t^-1")}


def fold_letters(gog, letters, word):
    out = gw.identity_nf(gog)
    for ch in word:
        out = gw.path_multiply(gog, out, letters[ch])
    return out


def random_words(alphabet, count, max_len, seed):
    rng = random.Random(seed)
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
            for _ in range(count)]


# -- oracle self-validation ---------------------------------------------------

def test_rewriting_closure_matches_matrices_sl2z():
    closure = oc.sl2z_closure(8)
    by_root = {}
    by_mat = {}
    for w in closure.universe:
        if len(w) > 6:
            continue
        r, m = closure.root(w), oc.sl2z_matrix(w)
        assert by_root.setdefault(r, m) == m
        assert by_mat.setdefault(m, r) == r


def test_rewriting_closure_matches_matrices_free_product():
    closure = oc.psl2_closure(6)
    by_root = {}
    by_mat = {}
    for w in closure.universe:
        r, m = closure.root(w), oc.psl2_matrix_up_to_sign(w)
        assert by_root.setdefault(r, m) == m
        assert by_mat.setdefault(m, r) == r


@pytest.mark.parametrize("closure", [oc.sl2z_closure, oc.psl2_closure],
                         ids=["sl2z", "psl2"])
def test_rule_first_closure_matches_scanning_closure(closure):
    assert closure(8).partition() == \
        closure(8, oc.ScanningClosure).partition()


# -- word problem against the oracles ----------------------------------------

def test_normal_form_matches_oracle_classes_sl2z():
    closure = oc.sl2z_closure(8)
    by_root = {}
    by_key = {}
    memo = {"": gw.identity_nf(SL2Z)}
    for w in closure.universe:
        if len(w) > 6:
            continue
        if w not in memo:
            memo[w] = gw.path_multiply(SL2Z, memo[w[:-1]], SL2Z_LETTERS[w[-1]])
        key = memo[w]
        root = closure.root(w)
        assert by_root.setdefault(root, key) == key
        assert by_key.setdefault(key, root) == root
        # Britton soundness: a nonempty syllable form is never the identity
        assert gw.is_identity(SL2Z, key) == closure.is_identity(w)
        if key.steps:
            assert not closure.is_identity(w)


def test_normal_form_matches_oracle_classes_free_product():
    closure = oc.psl2_closure(6)
    by_root = {}
    by_key = {}
    memo = {"": gw.identity_nf(Z2Z3)}
    for w in closure.universe:
        if w not in memo:
            memo[w] = gw.path_multiply(Z2Z3, memo[w[:-1]], Z2Z3_LETTERS[w[-1]])
        key = memo[w]
        root = closure.root(w)
        assert by_root.setdefault(root, key) == key
        assert by_key.setdefault(key, root) == root


def test_specified_word_values():
    # a^2 b^3 = b^6 = 1 because a^2 = b^3; both oracles agree
    assert oc.sl2z_is_identity("aabbb")
    assert oc.sl2z_closure(6).is_identity("aabbb")
    assert gw.is_identity(SL2Z, nf(SL2Z, "a a b b b"))
    assert gw.is_identity(SL2Z, nf(SL2Z, "a^2 b^-3"))
    assert not gw.is_identity(SL2Z, nf(SL2Z, "a b"))
    assert nf(SL2Z, "a b").syllable_length() == 2
    assert gw.is_identity(SL2Z, nf(SL2Z, ""))
    assert nf(SL2Z, "a^2 b") == nf(SL2Z, "b a^2")


# -- group operations ----------------------------------------------------------

def test_multiply_invert_roundtrip():
    for w in random_words("aAbB", 40, 8, seed=101):
        x = fold_letters(SL2Z, SL2Z_LETTERS, w)
        x_inv = gw.path_invert(SL2Z, x)
        assert gw.is_identity(SL2Z, gw.path_multiply(SL2Z, x, x_inv))
        assert gw.is_identity(SL2Z, gw.path_multiply(SL2Z, x_inv, x))


def test_multiply_of_powers_inverse_cancels():
    m = gw.path_multiply(SL2Z, nf(SL2Z, "a^2"), nf(SL2Z, "b^3"))
    assert gw.is_identity(SL2Z,
                          gw.path_multiply(SL2Z, gw.path_invert(SL2Z, m), m))


def test_multiply_is_associative_and_invert_is_involution():
    words = random_words("aAbB", 12, 6, seed=7)
    elems = [fold_letters(SL2Z, SL2Z_LETTERS, w) for w in words]
    rng = random.Random(13)
    for _ in range(40):
        x, y, z = (rng.choice(elems) for _ in range(3))
        left = gw.path_multiply(SL2Z, gw.path_multiply(SL2Z, x, y), z)
        right = gw.path_multiply(SL2Z, x, gw.path_multiply(SL2Z, y, z))
        assert left == right
    for x in elems:
        assert gw.path_invert(SL2Z, gw.path_invert(SL2Z, x)) == x


def test_normal_form_is_idempotent():
    for w in random_words("aAbB", 30, 8, seed=23):
        x = fold_letters(SL2Z, SL2Z_LETTERS, w)
        assert gw.normal_form(SL2Z, x) == x


# -- the amalgam of the two semidirect products --------------------------------

def _psi_c(mask):
    """(e1 e3)(e2 e4) on bit vectors: swap bits 0,2 and bits 1,3."""
    return ((mask & 0b0001) << 2 | (mask & 0b0100) >> 2
            | (mask & 0b0010) << 2 | (mask & 0b1000) >> 2)


def _c_word(mask):
    return " ".join(n for j, n in enumerate(["e1", "e2", "e3", "e4"])
                    if mask >> j & 1)


def test_letterwise_product_matches_literal_word():
    gog = build_counterexample_gog()
    u_literal = nf(gog, "z^-1 x y z")
    u_product = gw.identity_nf(gog)
    for letter in ("z^-1", "x", "y", "z"):
        u_product = gw.path_multiply(gog, u_product, nf(gog, letter))
    assert u_literal == u_product


def test_conjugation_by_u_permutes_the_edge_group():
    gog = build_counterexample_gog()
    u = nf(gog, "z^-1 x y z")
    for mask in range(16):
        lhs = gw.conjugate(gog, u, nf(gog, _c_word(mask)))
        assert lhs == nf(gog, _c_word(_psi_c(mask)))


def test_edge_group_elements_agree_from_both_sides():
    gog = build_counterexample_gog()
    # e1 read in the vB group pinches back to e1 read in the vA group
    ident = gog.vertices["vA"].identity
    word = gw.NormalForm("vA", ((ident, gw.Traversal("e", 0)),
                                (gog.vertices["vB"].generator("e1"),
                                 gw.Traversal("e", 1))), ident)
    assert gw.normal_form(gog, word) == nf(gog, "e1")


# -- orders and cyclic reduction ------------------------------------------------

def test_element_orders():
    assert gw.element_order(SL2Z, nf(SL2Z, "")) == 1
    assert gw.element_order(SL2Z, nf(SL2Z, "a")) == 4
    assert gw.element_order(SL2Z, nf(SL2Z, "b")) == 6
    assert gw.element_order(SL2Z, nf(SL2Z, "a^2")) == 2
    assert gw.element_order(SL2Z, nf(SL2Z, "a b")) == math.inf
    assert gw.element_order(SL2Z, nf(SL2Z, "b a")) == math.inf


def test_element_order_is_conjugation_invariant():
    words = random_words("aAbB", 25, 6, seed=31)
    conjs = random_words("aAbB", 25, 4, seed=32)
    for w, h in zip(words, conjs):
        x = fold_letters(SL2Z, SL2Z_LETTERS, w)
        g = fold_letters(SL2Z, SL2Z_LETTERS, h)
        assert gw.element_order(SL2Z, gw.conjugate(SL2Z, g, x)) == \
            gw.element_order(SL2Z, x)


def _is_cyclically_reduced(gog, core):
    if not core.steps:
        return True
    r1, t1 = core.steps[0]
    rn, tn = core.steps[-1]
    if t1 != tn.reverse():
        return True
    seam = gog.vertices[core.start].mul(core.tail, r1)
    return seam not in gog._crossing[t1].pinch


def test_cyclic_reduction_factorization():
    conj, core = gw.cyclic_reduction(SL2Z, nf(SL2Z, ""))
    assert gw.is_identity(SL2Z, conj) and gw.is_identity(SL2Z, core)

    w = nf(SL2Z, "b a b b^-1")
    conj, core = gw.cyclic_reduction(SL2Z, w)
    assert core.syllable_length() == 2
    back = gw.path_multiply(SL2Z, gw.path_multiply(SL2Z, conj, core),
                            gw.path_invert(SL2Z, conj))
    assert back == w

    conj, core = gw.cyclic_reduction(SL2Z, nf(SL2Z, "a b"))
    assert gw.is_identity(SL2Z, conj)
    assert core == nf(SL2Z, "a b")


def test_cyclic_reduction_on_random_conjugates():
    rng = random.Random(47)
    bases = random_words("aAbB", 20, 5, seed=53)
    for w in bases:
        x = fold_letters(SL2Z, SL2Z_LETTERS, w)
        _, core = gw.cyclic_reduction(SL2Z, x)
        assert _is_cyclically_reduced(SL2Z, core)
        for _ in range(3):
            h = fold_letters(SL2Z, SL2Z_LETTERS,
                             "".join(rng.choice("aAbB")
                                     for _ in range(rng.randint(0, 5))))
            y = gw.conjugate(SL2Z, h, x)
            conj2, core2 = gw.cyclic_reduction(SL2Z, y)
            assert core2.syllable_length() == core.syllable_length()
            back = gw.path_multiply(SL2Z, gw.path_multiply(SL2Z, conj2, core2),
                                    gw.path_invert(SL2Z, conj2))
            assert back == y


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_cyclic_reduction_matches_product_oracle(name, seed):
    gog = SEAM[name]
    rng = random.Random(seed)
    w = gw.parse_word(gog, random_letter_word(gog, rng, 6))
    h = gw.parse_word(gog, random_letter_word(gog, rng, 4))
    y = gw.conjugate(gog, h, w)
    assert gw.cyclic_reduction(gog, y) == oc.cyclic_reduction_by_products(
        gog, y)


def test_cyclic_reduction_makes_no_products(monkeypatch):
    calls = []
    real = gw.path_multiply
    monkeypatch.setattr(gw, "path_multiply",
                        lambda *args: calls.append(args) or real(*args))
    y = gw.conjugate(SL2Z, nf(SL2Z, "a b a b"), nf(SL2Z, "a b^2"))
    calls.clear()
    conj, core = gw.cyclic_reduction(SL2Z, y)
    assert calls == []
    assert conj.steps == y.steps[:3] and core.syllable_length() == 2


# -- seam-local products -----------------------------------------------------

@pytest.mark.parametrize("name", sorted(SEAM))
def test_path_multiply_matches_whole_path_oracle(name):
    gog = SEAM[name]
    rng = random.Random(20260 + sorted(SEAM).index(name))
    reps = [v.coset_rep for v in bt.ball(gog, bt.base_vertex(gog), 2)]
    for _ in range(40):
        p = nf(gog, random_letter_word(gog, rng, 8))
        q = nf(gog, random_letter_word(gog, rng, 8))
        r = rng.choice(reps)
        p_inv, q_inv = gw.path_invert(gog, p), gw.path_invert(gog, q)
        for x, y in ((p, q), (p, p_inv), (q_inv, q), (p, r),
                     (gw.path_invert(gog, r), p)):
            assert gw.path_multiply(gog, x, y) == \
                oc.whole_path_multiply(gog, x, y)
        assert gw.is_identity(gog, gw.path_multiply(gog, p, p_inv))


def random_raw_path(gog, rng, start, max_steps):
    """A seeded raw path word from start: (element, traversal) steps and a
    tail, with elements drawn from the whole vertex group.  Half the steps
    turn back along the previous traversal with an element of the edge
    group's image, so pinches, chains of them included, are common."""
    steps, v = [], start
    for _ in range(rng.randint(0, max_steps)):
        if steps and rng.random() < 0.5:
            t = steps[-1][1].reverse()
            g = rng.choice(sorted(gog._crossing[t].pinch))
        else:
            t = rng.choice(gog.incident(v))
            g = rng.randrange(gog.vertices[v].order)
        steps.append((g, t))
        v = gog.far(t)
    return steps, rng.randrange(gog.vertices[v].order)


def reduction_error(reduce, *args):
    with pytest.raises(gw.GogError) as exc:
        reduce(*args)
    return str(exc.value)


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_reducer_matches_traversal_keyed_oracle(name, seed):
    gog = SEAM[name]
    rng = random.Random(seed)
    start = rng.choice(sorted(gog.vertices))
    steps, tail = random_raw_path(gog, rng, start, 12)
    p = gw.path_normal_form(gog, start, steps, tail)
    assert p == oc.reduce_by_traversals(gog, start, steps, tail)
    q_steps, q_tail = random_raw_path(gog, rng, gw.end_vertex(gog, p), 12)
    q = gw.NormalForm(gw.end_vertex(gog, p), tuple(q_steps), q_tail)
    assert gw.path_multiply(gog, p, q) == oc.whole_path_multiply(gog, p, q)
    # Break one step, or the tail, and both reducers name the same fault.
    k = rng.randrange(len(steps) + 1)
    if k == len(steps):
        v = gog.far(steps[-1][1]) if steps else start
        bad, tail = steps, gog.vertices[v].order + rng.randrange(3)
    else:
        g, t = steps[k]
        elsewhere = [u for u in sorted(gog._crossing)
                     if gog.near(u) != gog.near(t)]
        if elsewhere and rng.random() < 0.5:
            step = (0, rng.choice(elsewhere))
        else:
            step = (rng.choice((-1 - g, g + gog.vertices[gog.near(t)].order)),
                    t)
        bad = steps[:k] + [step] + steps[k + 1:]
    assert reduction_error(gw.path_normal_form, gog, start, bad, tail) == \
        reduction_error(oc.reduce_by_traversals, gog, start, bad, tail)


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_n_ary_product_is_the_left_nested_binary_product(name, seed):
    # The first factor is a normal form; each later one is a raw path word
    # or a normal form, from where the factors before it end.
    gog = SEAM[name]
    rng = random.Random(seed)
    v = rng.choice(sorted(gog.vertices))
    factors = []
    for k in range(rng.randint(2, 5)):
        steps, tail = random_raw_path(gog, rng, v, 6)
        if k == 0 or rng.random() < 0.5:
            factors.append(gw.path_normal_form(gog, v, steps, tail))
        else:
            factors.append(gw.NormalForm(v, tuple(steps), tail))
        v = gog.far(steps[-1][1]) if steps else v
    nested = factors[0]
    for f in factors[1:]:
        nested = gw.path_multiply(gog, nested, f)
    assert gw.path_multiply(gog, *factors) == nested


def test_n_ary_product_refuses_a_factor_that_does_not_compose():
    a, b = nf(SL2Z, "a"), nf(SL2Z, "b")
    off_base = gw.identity_nf(SL2Z, "vB")
    for factors in ((a, b, off_base), (a, off_base, b)):
        assert reduction_error(gw.path_multiply, SL2Z, *factors) == \
            "paths are not composable"


@pytest.mark.parametrize("name", ["sl2z", "counterexample", "z2z3"])
def test_relabelled_tables_give_the_same_geometry(name):
    gog, moved = SEAM[name], SEAM[name + "-relabelled"]
    assert any(grp.identity != 0 for grp in moved.vertices.values())
    rng = random.Random(31)
    here, there = bt.base_vertex(gog), bt.base_vertex(moved)
    for _ in range(60):
        word = random_letter_word(gog, rng, 8)
        g, h = nf(gog, word), nf(moved, word)
        cg, ch = bt.classify(gog, g), bt.classify(moved, h)
        assert (g.syllable_length(), cg.kind, cg.translation_length) == \
            (h.syllable_length(), ch.kind, ch.translation_length)
        g_here, h_there = bt.translate(gog, g, here), bt.translate(moved, h, there)
        assert bt.distance(gog, here, g_here) == \
            bt.distance(moved, there, h_there)
        here, there = g_here, h_there


# -- HNN edges and free groups ---------------------------------------------------

def test_hnn_stable_letter_conjugates_across_the_edge():
    hnn = build_klein_hnn()
    assert nf(hnn, "t e2 t^-1") == nf(hnn, "e1")
    assert nf(hnn, "t^-1 e1 t") == nf(hnn, "e2")
    assert nf(hnn, "t e1 t^-1").syllable_length() == 2
    assert not gw.is_identity(hnn, gw.path_multiply(hnn, nf(hnn, "t e1 t^-1"),
                                               nf(hnn, "e2")))
    assert gw.element_order(hnn, nf(hnn, "t")) == math.inf


def test_free_group_rose():
    rose = gw.build_rose(["x", "y"])
    assert gw.is_identity(rose, nf(rose, "x x^-1"))
    comm = nf(rose, "x y x^-1 y^-1")
    assert comm.syllable_length() == 4
    assert not gw.is_identity(rose, comm)
    assert gw.element_order(rose, nf(rose, "x")) == math.inf
    names = [n for n, _ in gw.generator_letters(rose)]
    assert names == ["x", "y"]


# -- rejection of malformed input -------------------------------------------------

def test_malformed_words_rejected():
    with pytest.raises(gw.GogError):
        gw.parse_word(SL2Z, "q")
    with pytest.raises(gw.GogError):
        gw.parse_word(SL2Z, "e")  # spanning-tree edge carries no letter
    with pytest.raises(gw.GogError):
        gw.parse_word(SL2Z, "a^x")
    ident = SL2Z.vertices["vA"].identity
    # a dangling traversal is not a loop
    with pytest.raises(gw.GogError):
        gw.normal_form(SL2Z, gw.NormalForm(
            "vA", ((ident, gw.Traversal("e", 0)),), ident))
    # traversal from the wrong vertex
    with pytest.raises(gw.GogError):
        gw.normal_form(SL2Z, gw.NormalForm(
            "vA", ((ident, gw.Traversal("e", 1)),), ident))
    # word from a different graph
    rose = gw.build_rose(["x", "y"])
    with pytest.raises(gw.GogError):
        gw.normal_form(SL2Z, gw.parse_word(rose, "x"))


def test_parse_word_rejects_bare_caret():
    with pytest.raises(gw.GogError, match=r"malformed exponent in 'a\^'"):
        gw.parse_word(SL2Z, "a^")
    assert nf(SL2Z, "a^0 b") == nf(SL2Z, "b")


def test_parse_word_caps_edge_traversals_before_expanding():
    rose = gw.build_rose(["x"])
    with pytest.raises(gw.GogError, match=r"letter 'x' takes the word past"):
        gw.parse_word(rose, "x^100001")
    two = gw.build_rose(["x", "y"])
    with pytest.raises(gw.GogError, match=r"letter 'x' takes the word past"):
        gw.parse_word(two, "y^3 x^-99998")
    at_cap = gw.parse_word(two, "y^3 x^-99997")
    assert at_cap.syllable_length() == 100000


def test_ambiguous_letter_rejected():
    z2a = fg.build_cyclic(2, "p")
    z2b = fg.build_cyclic(2, "g")
    z2c = fg.build_cyclic(2, "g")
    triv = fg.build_cyclic(1, "c")
    hom = {grp: fg.GroupHom(triv, grp, (grp.identity,))
           for grp in (z2a, z2b, z2c)}
    edges = [gw.Edge("f1", triv, ("u", "v"), (hom[z2a], hom[z2b])),
             gw.Edge("f2", triv, ("u", "w"), (hom[z2a], hom[z2c]))]
    star = gw.GraphOfGroups([("u", z2a), ("v", z2b), ("w", z2c)], edges,
                            "u", {"f1", "f2"})
    with pytest.raises(gw.GogError):
        gw.parse_word(star, "g")
    assert gw.is_identity(star, nf(star, "p p"))


def _powered_word(gog, rng, max_letters):
    """Seeded word text over the presentation's letters, vertex generators
    and non-tree edges alike, each raised to a power in +-1..+-5."""
    letters = [name for name, _ in gw.generator_letters(gog)]
    tokens = []
    for _ in range(rng.randint(0, max_letters)):
        power = rng.choice((1, 2, 3, 4, 5, -1, -2, -3, -4, -5))
        name = rng.choice(letters)
        tokens.append(name if power == 1 and rng.random() < 0.5
                      else f"{name}^{power}")
    return " ".join(tokens)


@pytest.mark.parametrize("name", sorted(SEAM))
def test_parse_word_matches_two_pass_oracle(name):
    gog = SEAM[name]
    rng = random.Random(f"parse-{name}")
    for _ in range(60):
        text = _powered_word(gog, rng, 8)
        assert gw.parse_word(gog, text) == oc.two_pass_parse(gog, text), text


def _name_clash_graph(query, in_tree):
    """The first enumerated graph whose edge e1 shares its name with a
    generator of a (Z/2)^2 vertex group, with e1 in the spanning tree or
    not: enumeration names edges e0, e1, ... and (Z/2)^k's generators
    e1, e2, ..."""
    return next(gog for gog in ds.enumerate_reduced(*query)
                if "e1" in gog._letter_home
                and ("e1" in gog.spanning_tree) == in_tree
                and all(gog.base_vertex in homes
                        for homes in gog._letter_home.values()
                        if len(homes) > 1))


def _parsed(parse, gog, text):
    """parse(gog, text), or the message it raised: a (3, 2, 4) graph has
    two vertices named g, so some words are ambiguous."""
    try:
        return parse(gog, text)
    except gw.GogError as err:
        return str(err)


def _generator_lift(gog, home, element):
    """The loop at the base through the tree to home, element there, and
    back, reduced."""
    there = gog.tree_path(gog.base_vertex, home)
    back = gog.tree_path(home, gog.base_vertex)
    steps = [(gog.vertices[gog.near(t)].identity, t) for t in there]
    steps += [(element if k == 0 else gog.vertices[gog.near(t)].identity, t)
              for k, t in enumerate(back)]
    tail = gog.vertices[gog.base_vertex].identity if back else element
    return gw.path_normal_form(gog, gog.base_vertex, steps, tail)


@pytest.mark.parametrize("query, in_tree", [((1, 2, 4), False),
                                            ((2, 2, 4), True),
                                            ((3, 2, 4), True)], ids=str)
def test_a_name_both_an_edge_and_a_generator(query, in_tree, tmp_path,
                                             capsys):
    # A tree edge carries no letter, so its id reads as the generator of
    # that name; a non-tree edge and a generator of one name are refused
    # as ambiguous, by parse_word and the oracle alike, and
    # generator_letters lists neither.
    gog = _name_clash_graph(query, in_tree)
    (home,) = gog._letter_home["e1"]
    letters = gw.generator_letters(gog)
    names = [name for name, _ in letters]
    # Each generator letter is read at its own vertex, in vertex order, so
    # a name the base shares reads there unlike parse_word, which reads
    # the base's generator.
    for name in set(names):
        forms = [form for n, form in letters if n == name]
        if name in gog.edges and name not in gog.spanning_tree:
            assert forms == [gw.parse_word(gog, name)]
            continue
        homes = [(h, gog.vertices[h].generators[name])
                 for h in gog._letter_home[name]]
        assert forms == [_generator_lift(gog, h, x) for h, x in homes
                         if x != gog.vertices[h].identity]
    if in_tree:
        want = _generator_lift(gog, home, gog.vertices[home].generator("e1"))
        assert gw.parse_word(gog, "e1") == oc.two_pass_parse(gog, "e1") == want
        assert names.count("e1") == 1
    else:
        for parse in (gw.parse_word, oc.two_pass_parse):
            with pytest.raises(gw.GogError) as err:
                parse(gog, "e0 e1")
            assert str(err.value) == ("letter 'e1' is ambiguous between edge "
                                      "'e1' and the generator at vertices "
                                      "['v0']")
        assert "e1" not in names and len(set(names)) == len(names)
    rng = random.Random(f"clash-{query}")
    for _ in range(30):
        text = _powered_word(gog, rng, 6)
        assert _parsed(gw.parse_word, gog, text) == \
            _parsed(oc.two_pass_parse, gog, text), text

    path = str(tmp_path / "clash.json")
    with open(path, "w") as fh:
        json.dump(gw.gog_to_json(gog), fh)
    code = main(["nf", "--group", path, "--word", "e1"])
    out, err = capsys.readouterr()
    if in_tree:
        assert (code, out) == (0, gw.format_nf(gog, want) + "\n")
    else:
        assert code == 1 and "is ambiguous between edge 'e1'" in err
    code = main(["walk", "--group", path, "--lengths", "0,3", "--trials", "2"])
    out, err = capsys.readouterr()
    assert code == 0 and out and not err


def _shared_letter_star():
    """Base u with a generator p; leaves v and w both name a generator g."""
    z2a, z2b, z2c = (fg.build_cyclic(2, n) for n in ("p", "g", "g"))
    triv = fg.build_cyclic(1, "c")
    hom = {grp: fg.GroupHom(triv, grp, (grp.identity,))
           for grp in (z2a, z2b, z2c)}
    edges = [gw.Edge("f1", triv, ("u", "v"), (hom[z2a], hom[z2b])),
             gw.Edge("f2", triv, ("u", "w"), (hom[z2a], hom[z2c]))]
    return gw.GraphOfGroups([("u", z2a), ("v", z2b), ("w", z2c)], edges,
                            "u", {"f1", "f2"})


@pytest.mark.parametrize("gog, text", [
    (SL2Z, "a q"),                      # unknown letter
    (SL2Z, "a e^2"),                    # spanning-tree edge letter
    (SL2Z, "a^"),                       # bare caret
    (_shared_letter_star(), "p g"),     # ambiguous letter
    (gw.build_rose(["x"]), "x^100001"),  # past the traversal cap
])
def test_parse_word_errors_match_two_pass_oracle(gog, text):
    with pytest.raises(gw.GogError) as one_pass:
        gw.parse_word(gog, text)
    with pytest.raises(gw.GogError) as two_pass:
        oc.two_pass_parse(gog, text)
    assert str(one_pass.value) == str(two_pass.value)


@pytest.mark.parametrize("gog, text", [
    (SL2Z, "a q"),                      # unknown letter
    (SL2Z, "a e"),                      # spanning-tree edge letter
    (_shared_letter_star(), "p g"),     # ambiguous letter
], ids=["unknown", "tree-edge", "ambiguous"])
def test_zero_power_still_names_a_letter(gog, text):
    with pytest.raises(gw.GogError) as bare:
        gw.parse_word(gog, text)
    with pytest.raises(gw.GogError) as zero:
        gw.parse_word(gog, text + "^0")
    assert str(zero.value) == str(bare.value)


def test_zero_power_does_not_move():
    for gog in (SL2Z, build_klein_hnn(), build_counterexample_gog()):
        for name, _ in gw.generator_letters(gog):
            assert gw.parse_word(gog, f"{name}^0") == gw.identity_nf(gog)
    assert nf(SL2Z, "a b^0 a") == nf(SL2Z, "a a")


@pytest.mark.parametrize("step, message", [
    (gw.Traversal("zz", 0), "step 0 crosses unknown edge 'zz'"),
    (gw.Traversal("e", 2), "step 0 crosses edge 'e' in direction 2"),
    (gw.Traversal(["e"], 0), r"step 0 crosses unknown edge \['e'\]"),
], ids=["unknown-edge", "bad-direction", "unhashable-edge"])
def test_unknown_traversals_are_named(step, message):
    ident = SL2Z.vertices["vA"].identity
    with pytest.raises(gw.GogError, match=message):
        gw.normal_form(SL2Z, gw.NormalForm("vA", ((ident, step),), ident))
    with pytest.raises(gw.GogError, match=message):
        gw.path_normal_form(SL2Z, "vA", [(ident, step)], ident)


@pytest.mark.parametrize("steps, tail, message", [
    ((("x", gw.Traversal("e", 0)),), 0,
     r"step 0 is not an \(element index, Traversal\) pair: \('x'"),
    (((0, ("e", 0)),), 0,
     r"step 0 is not an \(element index, Traversal\) pair: \(0, \('e'"),
    (((0,),), 0,
     r"step 0 is not an \(element index, Traversal\) pair: \(0,\)"),
    ((), "x", "tail 'x' is not an element index"),
], ids=["string-element", "plain-tuple-traversal", "short-step",
        "string-tail"])
def test_malformed_steps_and_tails_are_named(steps, tail, message):
    with pytest.raises(gw.GogError, match=message):
        gw.normal_form(SL2Z, gw.NormalForm("vA", steps, tail))
    with pytest.raises(gw.GogError, match=message):
        gw.path_normal_form(SL2Z, "vA", steps, tail)


@pytest.mark.parametrize("tail", [-1, 4], ids=["negative", "past-order"])
def test_product_checks_the_tail_of_a_stepless_factor(tail):
    # A right factor with no steps goes through the same reducer as any
    # other, so its tail is range-checked too.
    with pytest.raises(gw.GogError) as exc:
        gw.path_multiply(SL2Z, nf(SL2Z, "a b"), gw.NormalForm("vA", (), tail))
    assert str(exc.value) == f"tail index {tail} out of range at 'vA'"


@pytest.mark.parametrize("start", ["vZ", ["vA"]], ids=["unknown", "list"])
def test_unknown_start_vertex_is_named(start):
    message = f"unknown start vertex {start!r}"
    with pytest.raises(gw.GogError) as exc:
        gw.normal_form(SL2Z, gw.NormalForm(start, (), 0))
    assert str(exc.value) == message
    with pytest.raises(gw.GogError) as exc:
        gw.path_normal_form(SL2Z, start, [], 0)
    assert str(exc.value) == message


def test_normal_form_is_a_named_tuple_of_its_fields():
    # It hashes as the tuple of its fields and prints as
    # NormalForm(field=value, ...), so set and dict orders and every printed
    # form follow from its fields alone.
    word = nf(SL2Z, "a b")
    plain = (word.start, word.steps, word.tail)
    assert hash(word) == hash(plain)
    assert word == plain and tuple(word) == plain
    assert repr(word) == ("NormalForm(start='vA', steps=((1, Traversal("
                          "edge='e', dir=0)), (1, Traversal(edge='e', "
                          "dir=1))), tail=0)")
    assert gw.identity_nf(SL2Z) < word


def test_a_plain_tuple_is_not_a_word():
    with pytest.raises(gw.GogError, match=r"not a word: \('vA', \(\), 0\)"):
        gw.normal_form(SL2Z, ("vA", (), 0))
    with pytest.raises(gw.GogError, match="unknown start vertex"):
        gw.path_normal_form(SL2Z, ("vA", (), 0), [], 0)


def test_build_amalgam_rejects_non_injective_map():
    z2 = fg.build_cyclic(2, "c")
    z4 = fg.build_cyclic(4, "a")
    squash = fg.GroupHom.from_generator_images(z2, z4, {"c": z4.identity})
    ok = fg.GroupHom.from_generator_images(z2, z4, {"c": 2})
    with pytest.raises(gw.GogError):
        gw.build_amalgam(z4, z4, z2, squash, ok)


def relabelled_z4():
    """Z/4 with elements 1, a, a^3, a^2 at indices 0..3, so index 2 has
    order 4, where build_cyclic(4) puts a^2."""
    pos = (0, 1, 3, 2)
    table = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            table[pos[i]][pos[j]] = pos[(i + j) % 4]
    return fg.FiniteGroup(table, {"a": 1})


def test_kept_injection_checks_still_refuse_bad_injections():
    # A valid graph on Z/4 *_{Z/2} Z/4 keeps its two injections as
    # checked; a later bad injection between the same groups must still
    # be refused, and named.
    z2, z4a, z4b = (fg.build_cyclic(2, "c"), fg.build_cyclic(4, "a"),
                    fg.build_cyclic(4, "b"))
    half = (fg.GroupHom(z2, z4a, (0, 2)), fg.GroupHom(z2, z4b, (0, 2)))
    gw.GraphOfGroups([("vA", z4a), ("vB", z4b)],
                     [gw.Edge("e", z2, ("vA", "vB"), half)], "vA", {"e"})
    not_a_hom = fg.GroupHom(z2, z4b, (0, 1))
    not_injective = fg.GroupHom(z2, z4b, (0, 0))
    for bad in (not_a_hom, not_injective):
        edge = gw.Edge("f", z2, ("vA", "vB"), (half[0], bad))
        with pytest.raises(gw.GogError,
                           match="edge 'f' injection 1 is not a monomorphism"):
            gw.GraphOfGroups([("vA", z4a), ("vB", z4b)], [edge], "vA", {"f"})


def test_an_injection_is_checked_again_on_other_groups():
    # (0, 2) is an injection of build_cyclic(2) into build_cyclic(4), and
    # was checked as one; the same mapping into another Z/4, or from
    # another Z/2, of equal orders is not a homomorphism there.
    z2, z4 = fg.build_cyclic(2, "c"), fg.build_cyclic(4, "a")
    gw.build_amalgam(z4, z4, z2, fg.GroupHom(z2, z4, (0, 2)),
                     fg.GroupHom(z2, z4, (0, 2)))
    other_z4 = relabelled_z4()
    other_z2 = fg.FiniteGroup([[1, 0], [0, 1]], {"c": 0})   # identity 1
    assert other_z2.identity == 1
    for src, tgt in ((z2, other_z4), (other_z2, z4)):
        good = fg.GroupHom(src, z4, tuple(0 if x == src.identity else 2
                                          for x in range(2)))
        bad = fg.GroupHom(src, tgt, (0, 2))
        with pytest.raises(gw.GogError,
                           match="edge 'e' injection 1 is not a monomorphism"):
            gw.build_amalgam(z4, tgt, src, good, bad)


def bfs_tree_path(gog, u, w):
    """Spanning-tree traversals from u to w, by breadth-first search from
    u over the tree edges' ends."""
    came_by = {u: None}
    frontier = [u]
    for v in frontier:
        for e in sorted(gog.spanning_tree):
            ends = gog.edges[e].ends
            for d in (0, 1):
                if ends[d] == v and ends[1 - d] not in came_by:
                    came_by[ends[1 - d]] = gw.Traversal(e, d)
                    frontier.append(ends[1 - d])
    path = []
    while w != u:
        path.append(came_by[w])
        w = gog.edges[path[-1].edge].ends[path[-1].dir]
    return tuple(reversed(path))


def rebased(gog):
    """The same graph of groups with each vertex as base in turn."""
    return [gw.GraphOfGroups(gog.vertices.items(), gog.edges.values(), v,
                             gog.spanning_tree) for v in sorted(gog.vertices)]


def chain(length):
    """Z/2 vertices v0 - v1 - ... joined in a line by trivial edge groups."""
    z2, triv = fg.build_cyclic(2, "s"), fg.build_cyclic(1, "c")
    vertices = [(f"v{k}", z2) for k in range(length)]
    inc = fg.GroupHom(triv, z2, (z2.identity,))
    edges = [gw.Edge(f"e{k}", triv, (f"v{k}", f"v{k + 1}"), (inc, inc))
             for k in range(length - 1)]
    return gw.GraphOfGroups(vertices, edges, "v0",
                            {e.id for e in edges})


TREE_GRAPHS = (list(SEAM.values()) + rebased(chain(4))
               + [g for found in ds.enumerate_reduced(3, 2, 2)
                  for g in rebased(found)])


def test_tree_paths_match_breadth_first_search():
    prefixed = 0
    for gog in TREE_GRAPHS:
        for u in gog.vertices:
            for w in gog.vertices:
                assert gog.tree_path(u, w) == bfs_tree_path(gog, u, w)
                to_u = gog.tree_path(gog.base_vertex, u)
                to_w = gog.tree_path(gog.base_vertex, w)
                prefixed += bool(to_u and to_w and to_u[0] == to_w[0]
                                 and u != w)
    assert prefixed > 0   # some pairs part below the base


def prefix_scan_tree_path(gog, u, w):
    """Spanning-tree traversals from u up to where the base's paths to u
    and to w part, then down to w, found by scanning their common
    prefix."""
    to_u, to_w = gog._from_base[u], gog._from_base[w]
    k = 0
    while k < min(len(to_u), len(to_w)) and to_u[k] == to_w[k]:
        k += 1
    return tuple(t.reverse() for t in reversed(to_u[k:])) + to_w[k:]


@pytest.mark.parametrize("name", sorted(SEAM))
def test_kept_tree_paths_match_the_prefix_scan(name):
    for gog in rebased(SEAM[name]):
        assert gog._facts == {}   # nothing is computed at construction
        pairs = [(u, w) for u in gog.vertices for w in gog.vertices]
        for u, w in pairs:
            assert gog.tree_path(u, w) == prefix_scan_tree_path(gog, u, w)
        assert sorted(gog._facts) == sorted(pairs)


def test_parse_word_reads_the_kept_paths():
    # Once the paths a word crosses are kept, parsing it again computes
    # none: it needs no path from the base.
    for gog in rebased(SEAM["counterexample"]):
        text = "x e1 z^-1 y e3 z x^-1"
        want = gw.parse_word(gog, text)
        pairs = {(u, w) for u in gog.vertices for w in gog.vertices}
        assert gog._facts and set(gog._facts) <= pairs   # paths only
        gog._from_base = None
        assert gw.parse_word(gog, text) == want


def test_transversals_are_the_coset_representatives():
    for gog in TREE_GRAPHS:
        for t in gog._crossing:
            sub = gog.edges[t.edge].inj[t.dir].mapping
            reps = fg.coset_data(gog.vertices[gog.near(t)], sub)[0]
            assert gog.transversal(t) == reps


def test_graph_validation():
    z2 = fg.build_cyclic(2, "s")
    z3 = fg.build_cyclic(3, "t")
    triv = fg.build_cyclic(1, "c")
    ia = fg.GroupHom(triv, z2, (z2.identity,))
    ib = fg.GroupHom(triv, z3, (z3.identity,))
    edge = gw.Edge("e", triv, ("vA", "vB"), (ia, ib))
    with pytest.raises(gw.GogError):  # disconnected
        gw.GraphOfGroups([("vA", z2), ("vB", z3), ("vC", z2)], [edge],
                         "vA", {"e"})
    with pytest.raises(gw.GogError):  # tree too small
        gw.GraphOfGroups([("vA", z2), ("vB", z3)], [edge], "vA", set())
    with pytest.raises(gw.GogError):  # base missing
        gw.GraphOfGroups([("vA", z2), ("vB", z3)], [edge], "vX", {"e"})


# -- parsing and serialization ------------------------------------------------------

def test_parser_exponents_and_tree_paths():
    assert nf(SL2Z, "a^2 b^-3") == nf(SL2Z, "a a b^-1 b^-1 b^-1")
    assert nf(SL2Z, "b").syllable_length() == 2
    assert [n for n, _ in gw.generator_letters(SL2Z)] == ["a", "b"]


SL2Z_JSON = """
{"vertices": [{"id": "vA", "group": {"kind": "cyclic", "n": 4, "name": "a"}},
              {"id": "vB", "group": {"kind": "cyclic", "n": 6, "name": "b"}}],
 "edges": [{"id": "e", "group": {"kind": "cyclic", "n": 2, "name": "c"},
            "ends": ["vA", "vB"],
            "maps": [{"c": "a a"}, {"c": "b b b"}]}],
 "base": "vA", "tree": ["e"]}
"""


def test_gog_json_loading_and_roundtrip():
    loaded = gw.gog_from_json(SL2Z_JSON)
    for w in ("a b", "a^2 b^-3", "b a^-1 b"):
        assert nf(loaded, w) == nf(SL2Z, w)
    again = gw.gog_from_json(gw.gog_to_json(loaded))
    for w in ("a b", "a^2 b^-3"):
        assert nf(again, w) == nf(SL2Z, w)
    with pytest.raises(gw.GogError):
        gw.gog_from_json({"vertices": [], "edges": []})


MISSING = object()
"""A test_gog_json_names_the_bad_field value: the field is deleted."""


@pytest.mark.parametrize("path,bad,message", [
    ((), 5, "graph of groups is not an object (got an integer)"),
    (("vertices",), 5, "field 'vertices' is not a list (got an integer)"),
    (("vertices", 0), "vA", "vertices[0] is not an object (got a string)"),
    (("vertices", 0, "id"), 5, "vertices[0].id is not a string (got an integer)"),
    (("edges",), "e", "field 'edges' is not a list (got a string)"),
    (("edges", 0), None, "edges[0] is not an object (got null)"),
    (("edges", 0, "id"), 7, "edges[0].id is not a string (got an integer)"),
    (("edges", 0, "ends"), "vA vB", "edges[0].ends is not a list (got a string)"),
    (("edges", 0, "ends", 1), 1, "edges[0].ends[1] is not a string"),
    (("edges", 0, "maps"), {}, "edges[0].maps is not a list (got an object)"),
    (("edges", 0, "maps"), [{"c": "a a"}],
     "edges[0].maps must list 2 injections (got 1)"),
    (("edges", 0, "maps", 1), ["b"], "edges[0].maps[1] is not an object"),
    (("edges", 0, "maps", 1, "c"), 3,
     "edges[0].maps[1]['c'] is not a string (got an integer)"),
    (("base",), 0, "field 'base' is not a string (got an integer)"),
    (("tree",), 7, "field 'tree' is not a list (got an integer)"),
    (("tree", 0), True, "tree[0] is not a string (got a boolean)"),
    (("vertices",), MISSING, "graph of groups has no field 'vertices'"),
    (("edges",), MISSING, "graph of groups has no field 'edges'"),
    (("base",), MISSING, "graph of groups has no field 'base'"),
    (("vertices", 1, "id"), MISSING, "vertices[1] has no field 'id'"),
    (("vertices", 0, "group"), MISSING, "vertices[0] has no field 'group'"),
    (("edges", 0, "id"), MISSING, "edges[0] has no field 'id'"),
    (("edges", 0, "group"), MISSING, "edges[0] has no field 'group'"),
    (("edges", 0, "ends"), MISSING, "edges[0] has no field 'ends'"),
    (("edges", 0, "maps"), MISSING, "edges[0] has no field 'maps'"),
])
def test_gog_json_names_the_bad_field(path, bad, message):
    data = json.loads(SL2Z_JSON)
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if bad is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = bad
    else:
        data = bad
    with pytest.raises(ValueError) as err:
        gw.gog_from_json(data)
    assert message in str(err.value)


SL2Z_DATA = json.loads(SL2Z_JSON)
VA, VB = SL2Z_DATA["vertices"]
EDGE = SL2Z_DATA["edges"][0]
VC = {"id": "vC", "group": {"kind": "cyclic", "n": 2, "name": "d"}}
LOOP = {**EDGE, "id": "l", "ends": ["vA", "vA"], "maps": [{"c": "a a"}] * 2}


@pytest.mark.parametrize("changes,message", [
    ({"vertices": [VA, VB, VB]}, "duplicate vertex id 'vB'"),
    ({"edges": [EDGE, EDGE]}, "duplicate edge id 'e'"),
    ({"edges": [{**EDGE, "id": "vA"}], "tree": ["vA"]},
     "edge id 'vA' collides with a vertex id"),
    ({"tree": ["f"]}, "spanning tree edge 'f' is not an edge"),
    ({"edges": [EDGE, LOOP], "tree": ["l"]},
     "loop edge 'l' cannot lie in a spanning tree"),
    ({"vertices": [VA, VB, VC], "edges": [EDGE, {**EDGE, "id": "f"}],
      "tree": ["e", "f"]}, "spanning tree contains a cycle"),
    ({"edges": [{**EDGE, "ends": ["vA"]}]},
     "edge 'e' has bad endpoints " '["vA"]'),
    ({"edges": [{**EDGE, "maps": [{"d": "a a"}, {"c": "b b b"}]}]},
     "edges[0].maps[0] names unknown generator 'd'"),
    ({"edges": [{**EDGE, "maps": [{"c": "q"}, {"c": "b b b"}]}]},
     "unknown generator 'q'"),
    ({"edges": [{**EDGE, "maps": [{"c": "^2"}, {"c": "b b b"}]}]},
     "malformed token '^2'"),
    ({"edges": [{**EDGE, "maps": [{"c": "a a"}, {}]}]},
     "edges[0].maps[1] has no field 'c'"),
], ids=["duplicate-vertex", "duplicate-edge", "edge-named-as-vertex",
        "tree-names-no-edge", "tree-loop", "tree-cycle", "one-endpoint",
        "injection-unknown-name", "injection-unknown-letter",
        "injection-nameless-token", "injection-missing-name"])
def test_gog_json_refuses_malformed_graphs(changes, message):
    with pytest.raises(ValueError) as err:
        gw.gog_from_json({**SL2Z_DATA, **changes})
    assert str(err.value) == message


def test_gog_json_table_entries_are_capped_before_the_next_group(
        monkeypatch):
    """SL2Z_JSON's groups hold 4² + 6² + 2² = 56 table entries.  At a cap
    of 56 the file loads; below it the group that passes the cap is named,
    and no group after it is built."""
    monkeypatch.setattr(gw, "MAX_GRAPH_TABLE_ENTRIES", 56)
    assert gw.gog_from_json(SL2Z_JSON).vertices["vB"].order == 6
    built = []
    monkeypatch.setattr(gw, "_group_at",
                        lambda spec, where: built.append(spec)
                        or fg._group_at(spec, where))
    for cap, where, entries, groups in ((55, "edges[0]", 56, 3),
                                        (51, "vertices[1]", 52, 2)):
        monkeypatch.setattr(gw, "MAX_GRAPH_TABLE_ENTRIES", cap)
        built.clear()
        with pytest.raises(gw.GogError) as err:
            gw.gog_from_json(SL2Z_JSON)
        assert str(err.value) == (f"{where}.group brings the group tables "
                                  f"to {entries} entries, above the table "
                                  f"cap {cap}")
        assert len(built) == groups


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_builtins_load_from_json_under_the_table_cap(name):
    data = gw.gog_to_json(BUILTIN_GROUPS[name]())
    assert gw.gog_to_json(gw.gog_from_json(json.dumps(data))) == data


def test_format_nf_is_readable():
    assert gw.format_nf(SL2Z, nf(SL2Z, "")) == "1"
    assert gw.format_nf(SL2Z, nf(SL2Z, "a b")) == "a e+ b e-"
    data = gw.nf_to_json(SL2Z, nf(SL2Z, "a b"))
    assert data["syllables"] == 2 and data["end"] == "vA"
