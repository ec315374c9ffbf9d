"""End-to-end acceptance checks, one numbered criterion per test.

Each test pins its tolerances and runtime budget inline; `pytest -v`
prints one pass/fail line per criterion. The criteria lean on the
independent oracles (exhaustive rewriting closures, exact integer
matrices, breadth-first tree search, brute-force subgroup closures)
rather than on the code paths they certify.
"""

import itertools
import random
import time

import oracles as oc
import tree_oracle as tro
import vfree.bstree as bt
import vfree.defspace as ds
import vfree.folds as fo
import vfree.genericity as gen
import vfree.gogwords as gw
from fixtures import random_words
from test_defspace import ROSE3, _random_move, build_star
from test_folds import Z2A, brute_closure, subdivided_sl2z
from vfree.cli import verify_counterexample, verify_sl2z
from vfree.folog import (
    classify,
    emit_delta_related,
    emit_mu,
    emit_theta_sl2z,
    parse,
    pretty_print,
)

SL2Z = gw.build_sl2z()


def nf(gog, text):
    return gw.normal_form(gog, gw.parse_word(gog, text))


def fold_letters(gog, word):
    letters = {"a": nf(gog, "a"), "A": nf(gog, "a^-1"),
               "b": nf(gog, "b"), "B": nf(gog, "b^-1")}
    out = gw.identity_nf(gog)
    for ch in word:
        out = gw.path_multiply(gog, out, letters[ch])
    return out


def by_id(report, cid):
    return next(c for c in report.checks if c.check_id == cid)


def test_criterion_1_counterexample_verification():
    t0 = time.perf_counter()
    report = verify_counterexample()
    elapsed = time.perf_counter() - t0
    assert report.overall == "pass"
    assert [c.status for c in report.checks] == ["pass"] * 6
    c = by_id(report, "c")
    assert c.witness["permutation"] == "(e1 e3)(e2 e4)"
    assert c.witness["agreements"] == 16
    f = by_id(report, "f")
    assert f.witness["order_with_x"] == 6
    assert f.witness["order_with_y"] == 24
    assert elapsed < 5.0


def test_criterion_2_sl2z_verification():
    t0 = time.perf_counter()
    report = verify_sl2z()
    elapsed = time.perf_counter() - t0
    assert report.overall == "pass"
    assert [c.status for c in report.checks] == ["pass"] * 5
    assert by_id(report, "c").witness["classes"] == 1
    assert by_id(report, "d").witness["new_splittings"] == 0
    assert elapsed < 10.0


def test_criterion_3_word_problem_oracle_equivalence():
    t0 = time.perf_counter()
    # Closures two letters deeper than the words under test: at depth 8
    # the identifications on length-8 words are still incomplete, at
    # depth 10 the classes are exact (cross-checked against matrices).
    z2z3 = gw.build_z2z3()
    jobs = [
        (SL2Z, oc.sl2z_closure(10), 8,
         {"a": "a", "A": "a^-1", "b": "b", "B": "b^-1"}, oc.sl2z_is_identity),
        (z2z3, oc.psl2_closure(10), 8,
         {"s": "s", "t": "t", "T": "t^-1"}, oc.psl2_is_identity),
    ]
    for gog, closure, max_len, alpha, mat_identity in jobs:
        letters = {ch: nf(gog, w) for ch, w in alpha.items()}
        memo = {"": gw.identity_nf(gog)}
        by_root, by_key = {}, {}
        checked = 0
        for w in closure.universe:
            if len(w) > max_len:
                continue
            if w not in memo:
                memo[w] = gw.path_multiply(gog, memo[w[:-1]], letters[w[-1]])
            key, root = memo[w], closure.root(w)
            # full class agreement, not just identity detection
            assert by_root.setdefault(root, key) == key
            assert by_key.setdefault(key, root) == root
            assert gw.is_identity(gog, key) == closure.is_identity(w)
            assert closure.is_identity(w) == mat_identity(w)
            checked += 1
        assert checked == sum(len(alpha) ** k for k in range(max_len + 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_criterion_4_degree_sum_invariance():
    starts = [SL2Z, build_star(), ROSE3]
    rng = random.Random(801)
    sequences = moves = 0
    while sequences < 100:
        cur = starts[sequences % len(starts)]
        want = ds.degree_sum(cur).value
        for _ in range(rng.randint(1, 6)):
            move = _random_move(cur, rng)
            if move is None:
                break
            cur = ds.apply_move(cur, move)
            assert ds.degree_sum(cur).value == want
            moves += 1
        sequences += 1
    assert sequences == 100 and moves >= 300

    # the two ways of expanding a degree-6 rose vertex split 4 as
    # (6-2)+(2-2) and (5-2)+(3-2)
    ident = (ROSE3.vertices["v"].identity,)
    one = ds.apply_move(ROSE3, ds.expansion_move("v", ident, [("x", 0)]))
    two = ds.apply_move(ROSE3, ds.expansion_move("v", ident,
                                                 [("x", 0), ("y", 0)]))
    assert sorted(d for _, d in ds.degree_sum(one).terms) == [2, 6]
    assert sorted(d for _, d in ds.degree_sum(two).terms) == [3, 5]
    assert ds.degree_sum(ROSE3).value == 4
    assert ds.degree_sum(one).value == (6 - 2) + (2 - 2)
    assert ds.degree_sum(two).value == (5 - 2) + (3 - 2)


def test_criterion_5_tree_geometry():
    words = random_words("aAbB", 700, 8, 811)
    helpers = random_words("aAbB", 700, 5, 812)
    hyperbolic = 0
    for w, hw in zip(words, helpers):
        g = fold_letters(SL2Z, w)
        c = bt.classify(SL2Z, g)
        if c.kind != "hyperbolic":
            continue
        hyperbolic += 1
        h = fold_letters(SL2Z, hw)
        conj = gw.path_multiply(SL2Z, gw.path_multiply(SL2Z, h, g),
                                gw.path_invert(SL2Z, h))
        cc = bt.classify(SL2Z, conj)
        assert cc.kind == "hyperbolic"
        assert cc.translation_length == c.translation_length
        p = g
        for n in range(2, 5):
            p = gw.path_multiply(SL2Z, p, g)
            assert bt.classify(SL2Z, p).translation_length == \
                n * c.translation_length
        if hyperbolic == 200:
            break
    assert hyperbolic == 200

    sampled = 0
    for w in random_words("aAbB", 50, 8, 813):
        g = fold_letters(SL2Z, w)
        c = bt.classify(SL2Z, g)
        want = 0 if c.kind == "elliptic" else c.translation_length
        assert tro.min_displacement(SL2Z, g, radius=6) == want
        sampled += 1
    assert sampled == 50


def closure_of(gog, elems):
    grown = set(elems) | {gw.identity_nf(gog)}
    while True:
        bigger = grown | {gw.path_multiply(gog, a, b)
                          for a in grown for b in grown}
        if bigger == grown:
            return frozenset(grown)
        grown = bigger


def test_criterion_6_fold_engine():
    rose = gw.build_rose(["x", "y"])
    runs = [
        (fo.marked_rose_for_basis(rose, ["x", "x y"]), rose),
        (subdivided_sl2z(Z2A), SL2Z),
        (subdivided_sl2z([""]), SL2Z),
    ]
    basis_seq = None
    for marked, target in runs:
        seq = fo.fold_sequence(marked, target, 20)
        if basis_seq is None:
            basis_seq = seq
        counts = [len(marked.edges)] + [len(t.edges) for _, t in seq]
        assert counts == sorted(counts, reverse=True)
        for _, state in seq:
            state.validate()
            for mv in state.vertices.values():
                assert mv.stab == closure_of(target, mv.stab)
            for me in state.edges.values():
                assert me.stab == closure_of(target, me.stab)
        assert fo.is_terminal(seq[-1][1])

    assert len(basis_seq) == 1
    assert basis_seq[0][0].kind == "pair"

    # the trivially marked subdivision regrows its stabilizers to exactly
    # the brute-force closures of the presentation subgroups
    final = fo.fold_sequence(subdivided_sl2z([""]), SL2Z, 20)[-1][1]
    assert final.edges["e"].stab == frozenset(brute_closure(SL2Z, ["a a"]))
    assert final.vertices["vB"].stab == frozenset(brute_closure(SL2Z, ["b"]))


def test_criterion_7_whitehead_filling():
    rng = random.Random(821)
    pairs = 0
    for w in random_words("aAbB", 400, 8, 822):
        g = fold_letters(SL2Z, w)
        if bt.classify(SL2Z, g).kind != "hyperbolic":
            continue
        h = fold_letters(SL2Z, "".join(rng.choice("aAbB") for _ in range(4)))
        conj = gw.path_multiply(SL2Z, gw.path_multiply(SL2Z, h, g),
                                gw.path_invert(SL2Z, h))
        sq = gw.path_multiply(SL2Z, g, g)
        for orbit in ("vA", "vB"):
            w1 = gen.whitehead_graph(SL2Z, g, orbit)
            w2 = gen.whitehead_graph(SL2Z, conj, orbit)
            w3 = gen.whitehead_graph(SL2Z, sq, orbit)
            assert w1.nodes == w2.nodes == w3.nodes
            assert w1.edges == w2.edges == w3.edges
        pairs += 1
        if pairs == 100:
            break
    assert pairs == 100

    # bounded search over alternating cyclically reduced words, syllable
    # length <= 8; the first hit is the recorded fixture
    found = None
    for k in range(1, 5):
        for combo in itertools.product(*(["a", "a^3"],
                                         ["b", "b^2", "b^4", "b^5"]) * k):
            text = " ".join(combo)
            g = nf(SL2Z, text)
            if bt.classify(SL2Z, g).kind != "hyperbolic":
                continue
            if gen.fills(SL2Z, g).fills:
                found = text
                break
        if found:
            break
    assert found == "a b"


def test_criterion_8_genericity_experiment():
    t0 = time.perf_counter()
    spec = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 200, 7)
    rows = gen.run_genericity_experiment(SL2Z, spec, [8, 32, 128])
    assert [(r.n, r.hyperbolic_count, r.filling_count) for r in rows] == [
        (8, 111, 111), (32, 154, 154), (128, 189, 189)]
    r8, _, r128 = rows
    assert r128.filling_rate >= r8.filling_rate - 0.05
    assert r128.filling_rate >= 0.945 - 0.05   # pilot fixture value
    again = gen.run_genericity_experiment(SL2Z, spec, [8, 32, 128])
    assert gen.experiment_csv(again) == gen.experiment_csv(rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0


def test_criterion_9_formula_emitters():
    theta = emit_theta_sl2z(("x^4", "y^6", "x^2 y^-3"),
                            ["x", "x y", "y^2 x"])
    assert classify(theta) == "existential"
    assert len(theta.free_variables) == 3

    mu = emit_mu(
        (2, ["x1^4", "x2^6", "x1^2 x2^-3"]),
        (2, ["y1^4", "y2^6", "y1^2 y2^-3"]),
        ["x1", "x2"],
        ["x1^2", "x2^3"],
        ["y1^2", "y2^3"],
        emit_theta_sl2z(("x^4", "y^6", "x^2 y^-3"),
                        ["x", "x y", "y", "y x"]))
    assert classify(mu) == "forall_exists"
    assert len(mu.free_variables) == 2

    delta = emit_delta_related(2, [["x1", "x2"], ["x1 x2"]])
    assert len(delta.free_variables) == 4

    for formula in (theta, mu, delta):
        assert parse(pretty_print(formula)) == formula
