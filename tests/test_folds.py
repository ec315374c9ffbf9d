"""Tests for the fold engine: marked-tree validation, the three fold
kinds with their stabilizer formulas, priority-ordered fold sequences,
and termination at the ambient presentation.

Free-group fold counts are cross-checked against an independent folding
oracle on labeled graphs; stabilizer growth is cross-checked against a
brute-force closure computed directly from normal-form products, and
property tests hold the vertex-group table closure and the subgroup check
of marked trees to the product closure oracle.  Fold runs are held, step
by step, to the eager listing of fold_oracle, whose trees are checked in
full.
"""

import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import fold_oracle
import vfree.bstree as bt
import vfree.folds as fo
import vfree.gogwords as gw
from fixtures import seam_presentations
from oracles import product_closure

ROSE = gw.build_rose(["x", "y"])
SL2Z = gw.build_sl2z()
SEAM = seam_presentations()

Z4 = ["", "a", "a a", "a a a"]
Z6 = ["", "b", "b b", "b b b", "b b b b", "b b b b b"]
Z2A = ["", "a a"]


def nf(gog, w):
    return gw.normal_form(gog, gw.parse_word(gog, w))


def mk(gog, vertices, edges):
    vs = {n: fo.marked_vertex(gog, img, stab)
          for n, (img, stab) in vertices.items()}
    es = {n: fo.marked_edge(gog, ends, tw, stab)
          for n, (ends, tw, stab) in edges.items()}
    return fo.MarkedTree(gog, vs, es)


def brute_closure(gog, words):
    elems = {nf(gog, w) for w in words} | {nf(gog, "")}
    while True:
        grown = elems | {gw.path_multiply(gog, a, b)
                         for a in elems for b in elems}
        if grown == elems:
            return elems
        elems = grown


def subdivided_sl2z(edge_stab):
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    return mk(SL2Z,
              {"vA": (base, Z4), "m": (base, Z2A), "vB": (vb, Z6)},
              {"f": (("vA", "m"), "", Z2A),
               "e": (("m", "vB"), "", edge_stab)})


# -- an independent folding oracle on labeled graphs ----------------------------

def _orientations(edge):
    a, label, b = edge
    return ((a, (label, 1), b), (b, (label, -1), a))


def fold_count_oracle(basis):
    """Folds needed to carry the subdivided wedge of circles labeled by
    the given positive words onto the standard rose."""
    edges = []
    fresh = 1
    for word in basis:
        letters = word.split()
        prev = 0
        for i, ch in enumerate(letters):
            tgt = 0 if i == len(letters) - 1 else fresh
            if tgt:
                fresh += 1
            edges.append((prev, ch, tgt))
    return count_folds(edges)


def count_folds(edges):
    """Folds that make a labeled graph, given as (origin, label, target)
    edges, folded: repeatedly identify two edges sharing an origin and a
    label, in either orientation."""
    folds = 0
    while True:
        hit = None
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                for a, l, b in _orientations(edges[i]):
                    for c, m, d in _orientations(edges[j]):
                        if a == c and l == m:
                            hit = (j, b, d)
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return folds
        j, b, d = hit
        edges.pop(j)
        if b != d:
            edges = [(x if x != d else b, l, y if y != d else b)
                     for x, l, y in edges]
        folds += 1


# -- construction and validation -------------------------------------------------

def test_identity_markings_are_terminal():
    for gog in (SL2Z, ROSE, gw.build_rose(["x", "y", "z"])):
        m = fo.identity_marking(gog)
        assert fo.is_terminal(m)
        assert fo.fold_sequence(m, gog, 5) == []
        assert all(fo.maximality_flags(m).values())


def test_marked_rose_shape():
    m = fo.marked_rose_for_basis(ROSE, ["x", "x y"])
    assert sorted(m.vertices) == ["u", "u1_1"]
    assert sorted(m.edges) == ["c0_0", "c1_0", "c1_1"]
    assert not fo.is_terminal(m)
    with pytest.raises(gw.GogError, match="fixes the base"):
        fo.marked_rose_for_basis(SL2Z, ["a"])


@pytest.mark.parametrize("gog, vertices, edges, flags", [
    # Two vertices over the orbit vA and none over vB.
    (SL2Z, {"v": ("", [""]), "w": ("", [""])}, {"E": (("v", "w"), "", [""])},
     {"E": False}),
    # The vertex over vA records half of its stabilizer.
    (SL2Z, {"v": ("", Z2A), "w": ("vB", Z6)}, {"E": (("v", "w"), "", Z2A)},
     {"E": True}),
    # The loop L maps to a point.
    (ROSE, {"u": ("", [""])}, {"L": (("u", "u"), "", [""]),
                                "M": (("u", "u"), "x", [""])},
     {"L": False, "M": True}),
    # Both loops map onto the ambient edge x.
    (ROSE, {"u": ("", [""])}, {"L": (("u", "u"), "x", [""]),
                                "M": (("u", "u"), "x^-1", [""])},
     {"L": True, "M": True}),
    # The edge records a trivial stabilizer, not the order-2 edge group.
    (SL2Z, {"v": ("", Z4), "w": ("vB", Z6)}, {"E": (("v", "w"), "", [""])},
     {"E": False}),
], ids=["orbit-missed", "vertex-stabilizer", "edge-to-point",
        "ambient-edge-twice", "edge-stabilizer"])
def test_is_terminal_refuses_each_shortfall(gog, vertices, edges, flags):
    """Each marking has as many vertex and edge orbits as the ambient
    quotient and falls short of it in one way."""
    at = {"": bt.base_vertex(gog)}
    if "vB" in gog.vertices:
        at["vB"] = bt.standard_vertex(gog, "vB")
    m = mk(gog, {n: (at[i], stab) for n, (i, stab) in vertices.items()},
           edges)
    assert (len(m.vertices), len(m.edges)) == \
        (len(gog.vertices), len(gog.edges))
    assert not fo.is_terminal(m) and not fold_oracle.is_terminal(m)
    assert fo.maximality_flags(m) == flags


def test_validation_rejects_bad_markings():
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    with pytest.raises(gw.GogError, match="does not fix"):
        mk(SL2Z, {"v": (base, ["", "b"])}, {})
    with pytest.raises(gw.GogError, match="not closed"):
        mk(SL2Z, {"v": (base, ["", "a"])}, {})
    with pytest.raises(gw.GogError, match="missing the identity"):
        fo.MarkedTree(SL2Z, {"v": fo.MarkedVertex(base, frozenset())}, {})
    with pytest.raises(gw.GogError, match="based group element"):
        fo.MarkedTree(
            SL2Z,
            {"v": fo.MarkedVertex(base,
                                  frozenset([gw.NormalForm("vB", (), 0)]))},
            {})
    with pytest.raises(gw.GogError, match="near vertex stabilizer"):
        mk(SL2Z, {"v": (base, [""]), "w": (vb, Z2A)},
           {"E": (("v", "w"), "", Z2A)})
    with pytest.raises(gw.GogError, match="edge or a point"):
        mk(SL2Z, {"v": (base, [""]), "w": (vb, [""])},
           {"E": (("v", "w"), "a b a b", [""])})
    with pytest.raises(gw.GogError, match="not connected"):
        mk(SL2Z, {"v": (base, [""]), "w": (vb, [""])}, {})


# -- single folds -----------------------------------------------------------------

def test_pair_fold_merges_orbits_and_stabilizers():
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    two = mk(SL2Z, {"v": (base, Z2A), "w": (vb, [""]), "w2": (vb, Z2A)},
             {"E": (("v", "w"), "", [""]), "E2": (("v", "w2"), "", Z2A)})
    d = fo.pair_fold("E", 0, "E2", 0)
    assert fo.classify_fold(two, d) == "type2"
    out = fo.fold(two, d)
    # One edge orbit and one far vertex orbit disappear.
    assert sorted(out.edges) == ["E"] and sorted(out.vertices) == ["v", "w"]
    assert out.edges["E"].stab == frozenset(brute_closure(SL2Z, ["a a"]))
    assert out.vertices["w"].stab == frozenset(brute_closure(SL2Z, ["a a"]))


def test_stabilizer_fold_grows_trivial_edge_group_to_order_two():
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    one = mk(SL2Z, {"v": (base, Z4), "w": (vb, Z2A)},
             {"E": (("v", "w"), "", [""])})
    d = fo.stabilizer_fold("E", 0, ("a a",))
    assert fo.classify_fold(one, d) == "type3"
    out = fo.fold(one, d)
    assert len(out.edges) == len(one.edges)
    assert out.edges["E"].stab == frozenset(brute_closure(SL2Z, ["a a"]))
    assert out.vertices["w"].stab == frozenset(brute_closure(SL2Z, ["a a"]))


def test_pair_fold_merges_away_a_vertex_with_a_loop():
    # u -x-> w, a y-loop at w (twist x y x^-1 from w's lift x.o) and an
    # x-loop at u: folding the two x-edges at u merges w into u, and w's
    # loop is re-twisted at both ends into the y-loop of the rose.
    base = bt.base_vertex(ROSE)
    at_x = bt.vertex_from_path(ROSE, nf(ROSE, "x"))
    m = mk(ROSE, {"u": (base, [""]), "w": (at_x, [""])},
           {"A": (("u", "w"), "", [""]), "B": (("u", "u"), "x", [""]),
            "L": (("w", "w"), "x y x^-1", [""])})
    d = fo.pair_fold("A", 0, "B", 0)
    assert fo.available_folds(m)["pairs"] == [d]
    out = fo.fold(m, d)
    out.validate()
    assert sorted(out.vertices) == ["u"] and sorted(out.edges) == ["A", "L"]
    assert out.edges["A"].ends == out.edges["L"].ends == ("u", "u")
    assert {me.twist for me in out.edges.values()} == \
        {nf(ROSE, "x"), nf(ROSE, "y")}
    assert fo.is_terminal(out)
    # The same labeled graph, 0 -x-> 1, 1 -y-> 1, 0 -x-> 0, needs one
    # fold in the labeled-graph oracle.
    assert len(fo.fold_sequence(m, ROSE, 5)) == \
        count_folds([(0, "x", 1), (1, "y", 1), (0, "x", 0)]) == 1


def test_pair_fold_of_two_edges_to_one_far_vertex_grows_it():
    # Both edges run from v to w and reach the tree edge from the base to
    # vB's standard vertex, the second through b: folding them adds b to
    # w's stabilizer.
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    two = mk(SL2Z, {"v": (base, [""]), "w": (vb, [""])},
             {"E": (("v", "w"), "", [""]), "E2": (("v", "w"), "b", [""])})
    d = fo.pair_fold("E", 0, "E2", 0)
    assert fo.classify_fold(two, d) == "type2"
    out = fo.fold(two, d)
    out.validate()
    assert sorted(out.edges) == ["E"] and sorted(out.vertices) == ["v", "w"]
    assert out.vertices["w"].stab == frozenset(brute_closure(SL2Z, ["b"]))
    assert out.vertices["v"].stab == frozenset(brute_closure(SL2Z, []))
    assert out.edges["E"].stab == frozenset(brute_closure(SL2Z, []))


def test_collapse_of_a_twisted_loop_grows_its_vertex():
    # The loop's twist a fixes the base vertex, so the loop maps to a
    # point; collapsing it adds a to the order-2 stabilizer.
    base = bt.base_vertex(SL2Z)
    m = mk(SL2Z, {"v": (base, Z2A)}, {"L": (("v", "v"), "a", [""])})
    d = fo.collapse_fold("L")
    assert fo.available_folds(m)["collapses"] == [d]
    out = fo.fold(m, d)
    out.validate()
    assert out.edges == {}
    assert out.vertices["v"].stab == frozenset(brute_closure(SL2Z, ["a"]))
    assert len(out.vertices["v"].stab) == 4


def test_fold_error_conditions():
    m = fo.marked_rose_for_basis(ROSE, ["x", "x y"])
    with pytest.raises(gw.GogError, match="same orbit"):
        fo.fold(m, fo.pair_fold("c0_0", 0, "c0_0", 1))
    with pytest.raises(gw.GogError, match="common endpoint"):
        fo.fold(m, fo.pair_fold("c0_0", 0, "c1_1", 0))
    with pytest.raises(gw.GogError, match="different images"):
        fo.fold(m, fo.pair_fold("c0_0", 0, "c1_1", 1))
    with pytest.raises(gw.GogError, match="does not map to a point"):
        fo.fold(m, fo.collapse_fold("c0_0"))
    base = bt.base_vertex(SL2Z)
    vb = bt.standard_vertex(SL2Z, "vB")
    one = mk(SL2Z, {"v": (base, Z4), "w": (vb, Z2A)},
             {"E": (("v", "w"), "", [""])})
    with pytest.raises(gw.GogError, match="lie in the marked vertex"):
        fo.fold(one, fo.stabilizer_fold("E", 0, ("b",)))
    with pytest.raises(gw.GogError, match="moves the image"):
        fo.fold(one, fo.stabilizer_fold("E", 0, ("a",)))
    with pytest.raises(gw.GogError, match="at least one element"):
        fo.fold(one, fo.stabilizer_fold("E", 0, ()))


# -- fold sequences ---------------------------------------------------------------

def _assert_priority(source, seq):
    cur = source
    for directive, after in seq:
        av = fo.available_folds(cur)
        if directive.classification == "type2":
            assert not av["collapses"]
        if directive.classification == "type3":
            assert not av["collapses"] and not av["pairs"]
        cur = after


def test_basis_fold_counts_match_labeled_graph_oracle():
    bases = [["x", "y"], ["x", "x y"], ["x y", "y"], ["y x", "y"],
             ["x", "x y x"]]
    for basis in bases:
        m = fo.marked_rose_for_basis(ROSE, basis)
        seq = fo.fold_sequence(m, ROSE, 20)
        assert len(seq) == fold_count_oracle(basis)
        final = seq[-1][1] if seq else m
        assert fo.is_terminal(final)
        # The realized loops end up at the standard basis.
        assert {me.twist for me in final.edges.values()} == \
            {nf(ROSE, "x"), nf(ROSE, "y")}
        counts = [len(m.edges)] + [len(t.edges) for _, t in seq]
        assert all(a - b == 1 for a, b in zip(counts, counts[1:]))
        assert all(d.classification == "type2" for d, _ in seq)
        _assert_priority(m, seq)


def test_two_element_basis_needs_exactly_one_fold():
    m = fo.marked_rose_for_basis(ROSE, ["x", "x y"])
    seq = fo.fold_sequence(m, ROSE, 20)
    assert len(seq) == 1
    assert seq[0][0].kind == "pair"


def test_fold_sequence_applies_each_fold_once(monkeypatch):
    applied = []
    for kind in ("pair", "stabilizer", "collapse"):
        real = getattr(fo, f"_apply_{kind}")

        def counted(marked, d, real=real):
            applied.append(d.kind)
            return real(marked, d)
        monkeypatch.setattr(fo, f"_apply_{kind}", counted)
    m = fo.marked_rose_for_basis(ROSE, ["x", "x y x"])
    seq = fo.fold_sequence(m, ROSE, 20)
    assert len(seq) > 1
    assert applied == [d.kind for d, _ in seq]


def test_subdivided_presentation_collapses_back():
    full = subdivided_sl2z(Z2A)
    seq = fo.fold_sequence(full, SL2Z, 10)
    assert [d.classification for d, _ in seq] == ["collapse"]
    assert fo.is_terminal(seq[-1][1])
    counts = [len(full.edges)] + [len(t.edges) for _, t in seq]
    assert counts == sorted(counts, reverse=True)


def test_subdivided_presentation_with_small_edge_marking():
    defi = subdivided_sl2z([""])
    assert fo.maximality_flags(defi) == {"f": False, "e": False}
    seq = fo.fold_sequence(defi, SL2Z, 10)
    assert [d.classification for d, _ in seq] == ["collapse", "type3"]
    assert [h for h in seq[1][0].elements] == [nf(SL2Z, "a a")]
    assert fo.is_terminal(seq[-1][1])
    assert all(fo.maximality_flags(seq[-1][1]).values())
    counts = [len(defi.edges)] + [len(t.edges) for _, t in seq]
    assert counts == sorted(counts, reverse=True)
    _assert_priority(defi, seq)
    # Stabilizers recorded along the way equal independent closures.
    final = seq[-1][1]
    assert final.edges["e"].stab == frozenset(brute_closure(SL2Z, ["a a"]))
    assert final.vertices["vB"].stab == frozenset(brute_closure(SL2Z, ["b"]))


def test_no_available_fold_is_ever_type1():
    states = [fo.marked_rose_for_basis(ROSE, ["x", "x y"]),
              subdivided_sl2z([""]), subdivided_sl2z(Z2A)]
    for m in states:
        av = fo.available_folds(m)
        for d in av["collapses"] + av["pairs"] + av["stabilizers"]:
            assert fo.classify_fold(m, d) in {"collapse", "type2", "type3"}


def test_fold_sequence_errors():
    m = fo.marked_rose_for_basis(ROSE, ["x", "x y"])
    with pytest.raises(fo.StepLimitError, match="max_steps"):
        fo.fold_sequence(m, ROSE, 0)
    with pytest.raises(gw.GogError, match="target must present"):
        fo.fold_sequence(m, SL2Z, 10)
    base = bt.base_vertex(SL2Z)
    stuck = mk(SL2Z, {"v": (base, [""])}, {})
    with pytest.raises(gw.GogError, match="not foldable"):
        fo.fold_sequence(stuck, SL2Z, 10)


# -- property tests: closures in vertex-group tables ------------------------------

@st.composite
def stabilized_vertices(draw, gog):
    """A standard tree vertex, or one translated by a short random word,
    with its stabilizer."""
    v = bt.standard_vertex(gog, draw(st.sampled_from(sorted(gog.vertices))))
    letters = [name + power for name, _ in gw.generator_letters(gog)
               for power in ("", "^-1")]
    word = draw(st.lists(st.sampled_from(letters), max_size=3))
    v = bt.translate(gog, gw.parse_word(gog, " ".join(word)), v)
    return v, bt.stabilizer(gog, v)


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=40)
@given(data=st.data())
def test_table_closure_matches_product_closure(name, data):
    gog = SEAM[name]
    v, stab = data.draw(stabilized_vertices(gog))
    gens = data.draw(st.lists(st.sampled_from(stab), max_size=3))
    assert fo._closure(gog, v, gens) == product_closure(gog, gens)


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=40)
@given(data=st.data())
def test_marked_tree_accepts_exactly_the_subgroups(name, data):
    gog = SEAM[name]
    v, stab = data.draw(stabilized_vertices(gog))
    group = product_closure(
        gog, data.draw(st.lists(st.sampled_from(stab), max_size=2)))
    added = data.draw(st.lists(st.sampled_from(stab), max_size=1))
    dropped = data.draw(st.lists(
        st.sampled_from(sorted(group, key=gw.NormalForm.sort_key)),
        max_size=1))
    subset = (group | frozenset(added)) - frozenset(dropped)
    try:
        fo.MarkedTree(gog, {"v": fo.MarkedVertex(v, subset)}, {})
        accepted = True
    except gw.GogError:
        accepted = False
    assert accepted == (product_closure(gog, subset) == subset)


# -- fold runs against the eager oracle -------------------------------------------

FOLD_PRESENTATIONS = {"rose-xy": ROSE, **SEAM}


@st.composite
def markings(draw):
    """A basis marking of one to three short words on the rose x, y or a
    seam presentation, an identity marking, or a subdivided sl2z."""
    kind = draw(st.sampled_from(["basis", "basis", "identity", "subdivided"]))
    if kind == "subdivided":
        return SL2Z, subdivided_sl2z(draw(st.sampled_from([Z2A, [""]])))
    gog = FOLD_PRESENTATIONS[draw(st.sampled_from(sorted(FOLD_PRESENTATIONS)))]
    if kind == "identity":
        return gog, fo.identity_marking(gog)
    letters = [name + power for name, _ in gw.generator_letters(gog)
               for power in ("", "^-1")]
    words = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1,
                                   max_size=4).map(" ".join),
                          min_size=1, max_size=3))
    try:
        return gog, fo.marked_rose_for_basis(gog, words)
    except gw.GogError:
        assume(False)


def _recorded_run(m, gog, max_steps):
    """fold_sequence's outcome, as fold_oracle names it, and every
    (directive, tree) it folded, also when it ends in an error."""
    folded, real = [], fo.fold

    def recording(marked, d):
        folded.append((d, real(marked, d)))
        return folded[-1][1]
    with mock.patch.object(fo, "fold", recording):
        try:
            steps = fo.fold_sequence(m, gog, max_steps)
        except fo.StepLimitError:
            return "limit", folded
        except gw.GogError as exc:
            assert "not foldable" in str(exc)
            return "stuck", folded
    assert [(d._replace(classification=None), t) for d, t in steps] == folded
    assert all(d.classification == fo._FOLD_CLASS[d.kind] for d, _ in steps)
    return "terminal", folded


@settings(max_examples=60)
@given(drawn=markings(), max_steps=st.integers(min_value=0, max_value=12))
def test_fold_sequence_matches_the_eager_oracle(drawn, max_steps):
    """Every step picks the oracle's directive and gives the oracle's tree,
    so every tree a fold returns passes the checking constructor; the
    whole listing also matches at each step, and so does the outcome."""
    gog, m = drawn
    want, want_outcome = fold_oracle.fold_sequence(m, max_steps)
    outcome, got = _recorded_run(m, gog, max_steps)
    assert outcome == want_outcome
    assert len(got) == len(want)
    cur = m
    for (d, tree), (want_d, want_tree) in zip(got, want):
        assert fo.available_folds(cur) == fold_oracle.available_folds(cur)
        assert d == want_d
        assert (tree.vertices, tree.edges) == \
            (want_tree.vertices, want_tree.edges)
        cur = tree


def test_fold_sequence_validates_only_its_source(monkeypatch):
    checked = []
    real = fo.MarkedTree.validate

    def counted(self):
        checked.append(self)
        real(self)
    monkeypatch.setattr(fo.MarkedTree, "validate", counted)
    m = fo.marked_rose_for_basis(ROSE, ["x y x", "x y^-1", "y x"])
    seq = fo.fold_sequence(m, ROSE, 20)
    assert len(seq) > 1 and fo.is_terminal(seq[-1][1])
    assert checked == [m]


def test_fold_sequence_on_131_edges_in_budget():
    """The basis marking (x y)^64, x, x y of the rose has 131 edges and
    folds in 129 pair folds.  On a 2-vCPU x86-64 VM the run took
    0.6-1.0 s; the budget is twice that."""
    m = fo.marked_rose_for_basis(ROSE, [" ".join(["x y"] * 64), "x", "x y"])
    assert len(m.edges) == 131
    start = time.perf_counter()
    seq = fo.fold_sequence(m, ROSE, 200)
    elapsed = time.perf_counter() - start
    assert len(seq) == 129 and fo.is_terminal(seq[-1][1])
    assert elapsed < 2.0
