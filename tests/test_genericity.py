"""Tests for Whitehead graphs, filling certificates, and random walks.

Whitehead edges are cross-checked against a definition-level oracle that
scans the axes of explicitly enumerated conjugates for segments through
the standard vertex, and graph for graph against the tree-pullback
construction in whitehead_oracle.py.  Filling fixtures come from an
exhaustive bounded search; walk statistics are frozen from a seeded pilot
run.
"""

import bisect
import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as oc
import vfree.bstree as bt
import vfree.fingroup as fg
import vfree.genericity as gen
import vfree.gogwords as gw
import whitehead_oracle as who
from vfree.cli import BUILTIN_GROUPS, load_group
from fixtures import (build_z2_z3, random_letter_word, random_words,
                      seam_presentations)

SL2Z = gw.build_sl2z()
FREE46 = gw.build_free_product(fg.build_cyclic(4, "a"), fg.build_cyclic(6, "b"))
SEAM = seam_presentations()
WALKED = {"sl2z": SL2Z, "z2z3": build_z2_z3(), "free46": FREE46}
# Walks are also checked where the identity is not index 0 and where an
# edge is a loop, so the walk's carry must start at the real identity.
ORACLE_WALKED = {**WALKED, **{name: SEAM[name] for name in (
    "sl2z-relabelled", "z2z3-relabelled", "rose", "klein-hnn")}}

# First filling elements found by the exhaustive alternating-word search.
FILLING_SL2Z = "a b"
FILLING_FREE46 = "a b a b^2 a^2 b^3"


def nf(gog, text):
    return gw.normal_form(gog, gw.parse_word(gog, text))


def fold_letters(gog, word):
    letters = {"a": nf(gog, "a"), "A": nf(gog, "a^-1"),
               "b": nf(gog, "b"), "B": nf(gog, "b^-1")}
    out = gw.identity_nf(gog)
    for ch in word:
        out = gw.path_multiply(gog, out, letters[ch])
    return out


def turn_oracle(gog, g_nf, orbit, conj_radius, periods=3):
    """Whitehead edges from the definition: enumerate conjugates by ball
    elements and scan their axis windows for length-2 segments through the
    standard vertex."""
    std = bt.standard_vertex(gog, orbit)
    edges = set()
    for u in gen.group_ball(gog, conj_radius):
        w = gw.path_multiply(gog, gw.path_multiply(gog, u, g_nf),
                             gw.path_invert(gog, u))
        fwd = bt.axis_window(gog, w, periods)
        back = bt.axis_window(gog, gw.path_invert(gog, w), periods,
                              anchor=fwd.vertices[0])
        verts = list(reversed(back.vertices[1:])) + list(fwd.vertices)
        for i in range(1, len(verts) - 1):
            if verts[i] == std:
                edges.add(frozenset((verts[i - 1], verts[i + 1])))
    return edges


def search_filling(gog, a_exps, b_exps, max_pairs):
    """First filling element among alternating cyclically reduced words."""
    for k in range(1, max_pairs + 1):
        for combo in itertools.product(*([a_exps, b_exps] * k)):
            text = " ".join(combo)
            w = nf(gog, text)
            if bt.classify(gog, w).kind != "hyperbolic":
                continue
            if gen.fills(gog, w).fills:
                return text
    return None


# -- Whitehead graphs ---------------------------------------------------------

def test_whitehead_rejects_elliptic_and_unknown_vertex():
    for bad in ("a", "a^2", "b^3"):
        with pytest.raises(gw.GogError, match="elliptic"):
            gen.whitehead_graph(SL2Z, nf(SL2Z, bad), "vA")
    with pytest.raises(gw.GogError, match="elliptic"):
        gen.fills(SL2Z, nf(SL2Z, "a"))
    with pytest.raises(gw.GogError, match="elliptic"):
        gen.one_ended_certificate(SL2Z, nf(SL2Z, "b"))
    with pytest.raises(gw.GogError, match="unknown vertex"):
        gen.whitehead_graph(SL2Z, nf(SL2Z, "a b"), "vC")


def test_whitehead_free_product_ab():
    # One turn per period at each orbit, saturated by the vertex group:
    # 4 of the 6 possible edges at the Z/4 vertex, 6 of 15 at Z/6.
    g = nf(FREE46, "a b")
    wa = gen.whitehead_graph(FREE46, g, "vA")
    assert wa.nodes == frozenset(bt.neighbors(FREE46, bt.standard_vertex(FREE46, "vA")))
    assert len(wa.nodes) == 4
    assert len(wa.edges) == 4 < 6
    assert not wa.is_complete
    assert len(wa.missing_pairs()) == 2
    wb = gen.whitehead_graph(FREE46, g, "vB")
    assert len(wb.nodes) == 6
    assert len(wb.edges) == 6
    assert len(wb.missing_pairs()) == 9
    for u, w in wa.missing_pairs():
        assert frozenset((u, w)) not in wa.edges and u in wa.nodes and w in wa.nodes


def test_whitehead_matches_definition_oracle():
    for gog, word in ((FREE46, "a b"), (FREE46, "a b^2 a^2 b"),
                      (SL2Z, "a b"), (SL2Z, "a b b a b^5")):
        g = nf(gog, word)
        for orbit in ("vA", "vB"):
            eng = gen.whitehead_graph(gog, g, orbit)
            assert set(eng.edges) == turn_oracle(gog, g, orbit, 3)


def test_whitehead_conjugation_and_power_invariance():
    rng = random.Random(701)
    words = random_words("aAbB", 80, 9, 702)
    checked = 0
    for word in words:
        g = fold_letters(SL2Z, word)
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
        checked += 1
    assert checked >= 15


def test_sl2z_single_turn_saturates_to_complete():
    # The Z/6 action is transitive on unordered pairs of the three
    # directions at vB, so one axis turn already completes the graph;
    # consequently every hyperbolic element of this amalgam fills.
    g = nf(SL2Z, "a b")
    wb = gen.whitehead_graph(SL2Z, g, "vB")
    assert len(wb.nodes) == 3 and len(wb.edges) == 3 and wb.is_complete
    report = gen.fills(SL2Z, g)
    assert report.fills and bool(report)
    assert all(not miss for miss in report.missing().values())
    assert gen.one_ended_certificate(SL2Z, g).status == "certified_one_ended"


# -- filling fixtures ---------------------------------------------------------

def test_filling_search_fixtures():
    assert search_filling(SL2Z, ["a", "a^3"],
                          ["b", "b^2", "b^4", "b^5"], 4) == FILLING_SL2Z
    assert search_filling(FREE46, ["a", "a^2", "a^3"],
                          ["b", "b^2", "b^3", "b^4", "b^5"], 4) == FILLING_FREE46


def test_filling_fixture_certificates():
    g = nf(FREE46, FILLING_FREE46)
    report = gen.fills(FREE46, g)
    assert report.fills
    assert gen.one_ended_certificate(FREE46, g).certified
    # the certificate is conjugation invariant
    for h_word in ("b a", "a^2 b^4"):
        conj = gw.conjugate(FREE46, gw.parse_word(FREE46, h_word),
                            gw.parse_word(FREE46, FILLING_FREE46))
        assert gen.fills(FREE46, conj).fills


def test_inconclusive_certificate_carries_report():
    cert = gen.one_ended_certificate(FREE46, nf(FREE46, "a b"))
    assert cert.status == "inconclusive" and not cert.certified
    assert not cert.report.fills
    missing = cert.report.missing()
    assert sorted(missing) == ["vA", "vB"]
    assert len(missing["vA"]) == 2 and len(missing["vB"]) == 9


def test_fills_fast_path_agrees():
    # run_genericity_experiment stops at the first incomplete orbit; its
    # filling count must still be the count of fills() over the same walks.
    for gog in (SL2Z, FREE46):
        spec = gen.uniform_spec(gog, ["a", "a^-1", "b", "b^-1"], 24, 703)
        rows = gen.run_genericity_experiment(gog, spec, [8, 64])
        for row in rows:
            walks = [gen.sample_walk(gog, spec, row.n, t)
                     for t in range(spec.trials)]
            hyp = [w for w in walks if bt.classify(gog, w).kind == "hyperbolic"]
            assert row.hyperbolic_count == len(hyp) >= 10
            assert row.filling_count == sum(gen.fills(gog, w).fills
                                            for w in hyp)
        if gog is FREE46:
            assert 0 < rows[-1].filling_count < rows[-1].hyperbolic_count


@pytest.mark.parametrize("name", sorted(SEAM))
def test_whitehead_matches_pullback_oracle(name):
    # Turns read off the core against turns pulled back from an axis
    # window through the tree, for random hyperbolic elements and one
    # conjugate of each, at every orbit.
    gog = SEAM[name]
    rng = random.Random(4700 + sorted(SEAM).index(name))
    checked = 0
    while checked < 10:
        g = nf(gog, random_letter_word(gog, rng, 7))
        if bt.classify(gog, g).kind != "hyperbolic":
            continue
        checked += 1
        h = nf(gog, random_letter_word(gog, rng, 4))
        for w in (g, gw.conjugate(gog, h, g)):
            want = [who.whitehead_by_pullback(gog, w, orbit)
                    for orbit in sorted(gog.vertices)]
            report = gen.fills(gog, w)
            assert [(x.nodes, x.edges) for x in report.graphs] == want
            assert report.fills == all(len(e) == math.comb(len(n), 2)
                                       for n, e in want)
            for x, orbit in zip(report.graphs, sorted(gog.vertices)):
                single = gen.whitehead_graph(gog, w, orbit)
                assert (single.nodes, single.edges) == (x.nodes, x.edges)


def count_translates(monkeypatch):
    calls = []
    real = gen.translate
    monkeypatch.setattr(gen, "translate",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_saturation_stops_once_nothing_is_missing(monkeypatch):
    # At vA of SL2(Z) there are two directions, so the first stabilizer
    # image of the one turn already completes the graph: one pair of
    # translates, where saturating the whole Z/4 would make four.
    calls = count_translates(monkeypatch)
    assert gen.whitehead_graph(SL2Z, nf(SL2Z, "a b"), "vA").is_complete
    assert len(calls) == 2


def test_saturation_skips_turns_already_in_the_graph(monkeypatch):
    # x z x z x z crosses the turns of x z three times; the later two are
    # edges of the graph by then, so only the first is saturated, by all
    # 64 elements of the group at vA (the graph stays incomplete).
    gog = SEAM["counterexample"]
    calls = count_translates(monkeypatch)
    once = gen.whitehead_graph(gog, nf(gog, "x z"), "vA")
    counted = len(calls)
    thrice = gen.whitehead_graph(gog, nf(gog, "x z x z x z"), "vA")
    assert counted == len(calls) - counted == 2 * 64
    assert (once.edges, once.is_complete) == (thrice.edges, False)


@pytest.mark.parametrize("name", sorted(SEAM))
def test_whitehead_frames_built_once_match_pullback_oracle(name):
    # The frame of each orbit is built the first time a graph needs it and
    # kept; graphs from a fresh copy of the presentation and from the same
    # copy once its frames exist both equal the pullback oracle's.
    gog = gw.gog_from_json(gw.gog_to_json(SEAM[name]))
    assert gog._facts == {}
    rng = random.Random(5200 + sorted(SEAM).index(name))
    checked = 0
    while checked < 4:
        g = nf(gog, random_letter_word(gog, rng, 7))
        if bt.classify(gog, g).kind != "hyperbolic":
            continue
        checked += 1
        for orbit in sorted(gog.vertices):
            got = gen.whitehead_graph(gog, g, orbit)
            assert (got.nodes, got.edges) == who.whitehead_by_pullback(
                gog, g, orbit)
    # A frame is kept under its orbit, the only facts keyed by a string.
    frames = {k: v for k, v in gog._facts.items() if isinstance(k, str)}
    assert sorted(frames) == sorted(gog.vertices)
    for orbit in sorted(gog.vertices):
        frame = bt.standard_frame(gog, orbit)
        assert frame is frames[orbit]
        assert type(frame.stabilizer) is tuple
        assert list(frame.stabilizer) == who.stabilizer_lifts(gog, orbit)


# -- p-matches ----------------------------------------------------------------

def test_p_match_same_axis_and_conjugate_translates():
    g = nf(SL2Z, "a b")
    res = gen.p_match(SL2Z, g, gw.path_invert(SL2Z, g), 5, 2)
    assert res.matched and res.status == "match"
    assert res.h_translator == gw.identity_nf(SL2Z)
    assert res.overlap_length == len(res.overlap) - 1 > 5
    k = nf(SL2Z, "b a")
    conj = gw.conjugate(SL2Z, k, g)
    for p in (3, 7):
        res = gen.p_match(SL2Z, g, conj, p, 2)
        assert res.matched and res.overlap_length > p
        assert all(bt.distance(SL2Z, res.overlap[i], res.overlap[i + 1]) == 1
                   for i in range(len(res.overlap) - 1))


def test_p_match_sl2z_ab_vs_ab2():
    g, h = nf(SL2Z, "a b"), nf(SL2Z, "a b b")
    # a (ab^2) a^-1 = (ab)^-1, so the two axes coincide after translating
    # by a; the search finds exactly that witness.
    assert gw.conjugate(SL2Z, nf(SL2Z, "a"), h) == gw.path_invert(SL2Z, g)
    res = gen.p_match(SL2Z, g, h, 4, 6)
    assert res.matched
    assert res.h_translator == nf(SL2Z, "a")
    assert res.g_translator == gw.identity_nf(SL2Z)
    assert res.overlap_length > 4
    # symmetry and monotonicity of the bounded search
    assert gen.p_match(SL2Z, h, g, 4, 6).matched
    for p in (1, 2, 3):
        assert gen.p_match(SL2Z, g, h, p, 6).matched


def test_p_match_none_within_radius():
    g, h = nf(FREE46, "a b"), nf(FREE46, "a b^2")
    for radius in (0, 3):
        res = gen.p_match(FREE46, g, h, 2, radius)
        assert res.status == "none-within-radius" and not res.matched
        assert res.g_translator is None and res.h_translator is None
        assert res.overlap == () and res.overlap_length == 0
    with pytest.raises(gw.GogError, match="elliptic"):
        gen.p_match(SL2Z, nf(SL2Z, "a"), nf(SL2Z, "a b"), 2, 1)
    with pytest.raises(gw.GogError, match="at least 1"):
        gen.p_match(SL2Z, nf(SL2Z, "a b"), nf(SL2Z, "a b"), 0, 1)


def test_group_ball_enumeration():
    ball0 = gen.group_ball(SL2Z, 0)
    assert len(ball0) == 4 and gw.identity_nf(SL2Z) in ball0
    ball2 = gen.group_ball(SL2Z, 2)
    assert len(ball2) == 20
    assert all(len(u.steps) <= 2 for u in ball2)
    assert len(set(ball2)) == len(ball2)
    for u in ball2:
        assert gw.path_invert(SL2Z, u) in ball2


# -- random walks -------------------------------------------------------------

def test_walk_spec_validation():
    with pytest.raises(gw.GogError, match="nonempty"):
        gen.uniform_spec(SL2Z, [], 5, 1)
    with pytest.raises(gw.GogError, match="generator letter"):
        gen.validate_walk_spec(SL2Z, gen.uniform_spec(SL2Z, ["a"], 5, 1))
    good = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 5, 1)
    gen.validate_walk_spec(SL2Z, good)
    from fractions import Fraction
    bad_sum = gen.RandomWalkSpec(good.support,
                                 (Fraction(1, 2),) * 4, 5, 1)
    with pytest.raises(gw.GogError, match="sum to 1"):
        gen.validate_walk_spec(SL2Z, bad_sum)
    with pytest.raises(gw.GogError, match="positive"):
        gen.validate_walk_spec(SL2Z, gen.RandomWalkSpec(
            good.support, (Fraction(1), Fraction(1), Fraction(-1), Fraction(0)), 5, 1))
    with pytest.raises(gw.GogError, match="one weight per"):
        gen.validate_walk_spec(SL2Z, gen.RandomWalkSpec(
            good.support, (Fraction(1),), 5, 1))
    with pytest.raises(gw.GogError, match="trial"):
        gen.validate_walk_spec(SL2Z, gen.RandomWalkSpec(
            good.support, good.weights, 0, 1))
    off_base = gw.NormalForm("vB", (), 1)
    with pytest.raises(gw.GogError, match="loops at the base"):
        gen.validate_walk_spec(SL2Z, gen.RandomWalkSpec(
            (off_base,), (Fraction(1),), 5, 1))


def test_walk_determinism_and_trial_prefix():
    spec = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 40, 7)
    rows = gen.run_genericity_experiment(SL2Z, spec, [0, 8, 32])
    assert [(r.n, r.hyperbolic_count, r.filling_count) for r in rows] == [
        (0, 0, 0), (8, 21, 21), (32, 29, 29)]
    assert rows[0].filling_rate == 0.0
    again = gen.run_genericity_experiment(SL2Z, spec, [0, 8, 32])
    assert gen.experiment_csv(again) == gen.experiment_csv(rows)
    assert gen.experiment_csv(rows).splitlines()[0] == \
        "n,trials,hyperbolic_count,filling_count,filling_rate"
    assert gen.experiment_csv(rows).splitlines()[2] == "8,40,21,21,0.525000"
    # trial seeds depend only on the trial index, so growing the trial
    # count leaves earlier outcomes unchanged
    more = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 80, 7)
    first = [gen.sample_walk(SL2Z, spec, 8, t) for t in range(40)]
    wider = [gen.sample_walk(SL2Z, more, 8, t) for t in range(80)]
    assert first == wider[:40]
    assert gen.splitmix64(7, 0) != gen.splitmix64(7, 1)
    assert gen.splitmix64(7, 3) == gen.splitmix64(7, 3)


def test_walk_free_product_pilot():
    spec = gen.uniform_spec(FREE46, ["a", "a^-1", "b", "b^-1"], 40, 11)
    rows = gen.run_genericity_experiment(FREE46, spec, [4, 16, 64])
    assert [(r.n, r.hyperbolic_count, r.filling_count) for r in rows] == [
        (4, 28, 0), (16, 39, 1), (64, 40, 19)]
    # longer words are hyperbolic and filling more often
    assert rows[-1].hyperbolic_rate >= rows[0].hyperbolic_rate - 0.05
    assert rows[-1].filling_rate >= rows[0].filling_rate - 0.05


def test_walk_rejects_bad_lengths():
    spec = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 2, 3)
    with pytest.raises(gw.GogError, match="nonnegative"):
        gen.run_genericity_experiment(SL2Z, spec, [-1])
    with pytest.raises(gw.GogError, match="nonnegative"):
        gen.sample_walk(SL2Z, spec, -2, 0)


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
def test_walk_lengths_must_be_integers(bad):
    spec = gen.uniform_spec(SL2Z, ["a", "a^-1", "b", "b^-1"], 2, 3)
    message = "walk lengths must be nonnegative integers"
    with pytest.raises(gw.GogError, match=message):
        gen.run_genericity_experiment(SL2Z, spec, [bad, 2])
    with pytest.raises(gw.GogError, match=message):
        gen.sample_walk(SL2Z, spec, bad, 0)


@pytest.mark.parametrize("weights", [(2, -1), (1, 0)])
def test_sample_walk_refuses_weights_that_are_not_positive(weights):
    # A draw reads each weight as a run of byte values, so a weight of 0
    # or below is refused, as validate_walk_spec refuses it.
    letters = tuple(gw.parse_word(SL2Z, w) for w in ("a", "b"))
    with pytest.raises(gw.GogError, match="weights must be positive"):
        gen.sample_walk(SL2Z, gen.RandomWalkSpec(letters, weights, 1, 0), 4, 0)


OFF_BASE = gw.NormalForm("vB", (), 1)


def spec_of(support, weights, trials=1):
    """A walk spec on SL2Z; words in the support are parsed."""
    picks = tuple(gw.parse_word(SL2Z, w) if isinstance(w, str) else w
                  for w in support)
    return gen.RandomWalkSpec(picks, weights, trials, 0)


@pytest.mark.parametrize("support, weights, message", [
    ((), (), "measure support must be nonempty"),
    (("a",), (1, 1), "one weight per support element is required"),
    (("a", "b"), (1,), "one weight per support element is required"),
    ((OFF_BASE,), (1,), "support elements must be loops at the base vertex"),
    (("a", "b"), (2, -1), "weights must be positive"),
    (("a", "b"), (1, 1), "weights must sum to 1"),
], ids=["empty", "more-weights", "fewer-weights", "off-base", "negative",
        "sum"])
def test_walks_refuse_what_they_cannot_walk(support, weights, message):
    # sample_walk and validate_walk_spec run the same checks (_walk_plan)
    spec = spec_of(support, weights)
    for walk_or_check in (lambda: gen.sample_walk(SL2Z, spec, 4, 0),
                          lambda: gen.validate_walk_spec(SL2Z, spec)):
        with pytest.raises(gw.GogError) as err:
            walk_or_check()
        assert str(err.value) == message


@pytest.mark.parametrize("support, weights, trials, message", [
    ((), (), 0, "measure support must be nonempty"),
    ((OFF_BASE,), (1, 1), 1, "one weight per support element is required"),
    ((OFF_BASE,), (2,), 1, "support elements must be loops at the base vertex"),
    (("a", "b"), (2, -1), 0, "weights must be positive"),
    (("a",), (1,), 0, "at least one trial is required"),
], ids=["support-before-trials", "count-before-loops", "loops-before-weights",
        "weights-before-trials", "trials-before-generation"])
def test_walk_spec_checks_run_in_order(support, weights, trials, message):
    with pytest.raises(gw.GogError) as err:
        gen.validate_walk_spec(SL2Z, spec_of(support, weights, trials))
    assert str(err.value) == message


@pytest.mark.parametrize("length", [0, 1, 2])
def test_sample_walk_refuses_a_support_that_is_not_a_loop(length):
    # One step from vA to vB, which is not a loop at the base vertex vA.
    path = gw.NormalForm("vA", ((0, gw.Traversal("e", 0)),), 0)
    spec = gen.RandomWalkSpec((path,), (1,), 1, 0)
    with pytest.raises(gw.GogError, match="loops at the base vertex"):
        gen.sample_walk(SL2Z, spec, length, 0)


def letter_spec(gog, trials, seed):
    """Uniform measure on every generator letter and its inverse."""
    return gen.uniform_spec(gog, [name + sfx for name, _ in
                                  gw.generator_letters(gog)
                                  for sfx in ("", "^-1")], trials, seed)


@pytest.mark.parametrize("name", sorted(ORACLE_WALKED))
@settings(max_examples=15)
@given(lengths=st.lists(st.integers(0, 64), max_size=5),
       trials=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
@example(lengths=[0, 32, 8, 32, 64], trials=4, seed=7)
def test_experiment_matches_rewalking_oracle(name, lengths, trials, seed):
    gog = ORACLE_WALKED[name]
    spec = letter_spec(gog, trials, seed)
    rows = gen.run_genericity_experiment(gog, spec, lengths)
    assert [(r.n, r.trials, r.hyperbolic_count, r.filling_count)
            for r in rows] == oc.experiment_by_rewalking(gog, spec, lengths)
    assert [gen.sample_walk(gog, spec, n, 0) for n in lengths] == [
        oc.walk_from_identity(gog, spec, n, 0) for n in lengths]


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 24), min_size=1, max_size=4))
def test_walk_matches_oracle_on_mixed_supports(name, seed, lengths):
    # Supports that mix step-free picks (vertex-group elements, among them
    # possibly the identity), multi-syllable words and rational weights
    # that are not uniform: every length of one walk, and sample_walk at
    # each, equal the oracle's walk from the identity.
    gog = SEAM[name]
    rng = random.Random(seed)
    group = gog.vertices[gog.base_vertex]
    support = [gw.NormalForm(gog.base_vertex, (), rng.randrange(group.order))
               for _ in range(rng.randint(1, 2))]
    support += [gw.parse_word(gog, random_letter_word(gog, rng, 8))
                for _ in range(rng.randint(1, 3))]
    shares = [rng.randint(1, 5) for _ in support]
    weights = tuple(Fraction(k, sum(shares)) for k in shares)
    spec = gen.RandomWalkSpec(tuple(support), weights, 1, rng.getrandbits(64))
    trial = rng.randrange(3)
    want = {n: oc.walk_from_identity(gog, spec, n, trial) for n in lengths}
    walked = gen._walk(gog, gen._walk_plan(gog, spec), spec.seed, trial,
                       sorted(set(lengths)))
    assert {n: gw.NormalForm(gog.base_vertex, tuple(steps), tail)
            for n, steps, tail in walked} == want
    assert all(gen.sample_walk(gog, spec, n, trial) == want[n]
               for n in lengths)


def test_experiment_walks_each_trial_once(monkeypatch):
    # One draw per walk step: the walk reads each pick onto its steps in
    # place, so its draws, not its products, count the steps it takes.
    # A draw reads the words randrange(denom) reads, some of them through
    # one batched getrandbits call, so the walk reads as many 32-bit words
    # (ceil(k / 32) for getrandbits(k)) as three fresh generators that
    # each make 128 randrange(denom) draws.
    spec = letter_spec(SL2Z, 3, 5)
    gen.validate_walk_spec(SL2Z, spec)
    denom = gen._step_table(spec)[0]
    monkeypatch.setattr(gen, "_check_generation", lambda gog, support: None)
    calls = []
    real = random.Random.getrandbits
    monkeypatch.setattr(random.Random, "getrandbits",
                        lambda *args: calls.append(args[1:]) or real(*args))
    gen.run_genericity_experiment(SL2Z, spec, [8, 32, 128])
    walked = list(calls)
    calls.clear()
    for t in range(3):
        rng = random.Random(gen.splitmix64(spec.seed, t))
        for _ in range(128):
            rng.randrange(denom)

    def words(made):
        return sum(-(-k // 32) for k, in made)

    assert words(walked) == words(calls)


def test_experiment_compiles_its_spec_once(monkeypatch):
    # The plan of a measure is kept on the graph: validate_walk_spec and
    # two experiments with different seeds and trial counts build one
    # step table, compile one set of picks and check generation once, per
    # graph and measure.
    counted = {"_step_table": 0, "_pick_records": 0, "_check_generation": 0}
    for name in counted:
        real = getattr(gen, name)

        def counting(*args, name=name, real=real):
            counted[name] += 1
            return real(*args)

        monkeypatch.setattr(gen, name, counting)
    for gog in (build_z2_z3(), gw.build_sl2z()):
        counted.update(dict.fromkeys(counted, 0))
        spec = letter_spec(gog, 3, 5)
        plan = gen.validate_walk_spec(gog, spec)
        assert plan is gen._walk_plan(gog, spec)
        for other in (spec._replace(seed=6), spec._replace(trials=2, seed=7)):
            rows = gen.run_genericity_experiment(gog, other, [4, 8])
            assert list(rows) == oc.experiment_by_rewalking(gog, other, [4, 8])
        assert counted == dict.fromkeys(counted, 1)


@pytest.mark.parametrize("shares", [(1,), (1, 2), (1, 1, 2), (1, 2, 3),
                                    (1, 2, 4, 5), (1, 7918)],
                         ids=lambda shares: f"denom{sum(shares)}")
def test_walk_draws_the_randrange_stream(shares):
    # The denominators 1, 3, 4, 6, 12 and 7919: one that needs no choice,
    # powers of two and not, and a large prime, where most getrandbits
    # values are redrawn.  Every length equals the oracle's randrange walk.
    letters = [gw.parse_word(SL2Z, w) for w in ("a", "b", "a^-1", "b^-1")]
    support = tuple(letters[k % 4] for k in range(len(shares)))
    weights = tuple(Fraction(k, sum(shares)) for k in shares)
    spec = gen.RandomWalkSpec(support, weights, 1, 11)
    assert gen._step_table(spec)[0] == sum(shares)
    for trial in range(3):
        for n in (0, 1, 5, 40):
            assert gen.sample_walk(SL2Z, spec, n, trial) == \
                oc.walk_from_identity(SL2Z, spec, n, trial)


@pytest.mark.parametrize("denom", [1, 255, 256, 7919])
@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(list(BUILTIN_GROUPS)),
       seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_walk_kernel_matches_both_oracles(denom, name, seed, lengths):
    # The denominators sit on both sides of the byte tables' bound of 255.
    # Past denominator 1 the support holds a multi-syllable word and its
    # inverse, so every position of a pick pops.  The spec is walked on a
    # fresh graph and on one whose compiled picks another support filled
    # first; both equal the segment walk and the walk by products, and the
    # draws read exactly the words of randrange(denom).
    rng = random.Random(seed)
    fresh, used = load_group(name), load_group(name)
    word = gw.parse_word(fresh, "")
    while len(word.steps) < 2:
        word = gw.parse_word(fresh, random_letter_word(fresh, rng, 8))
    support, shares = [word], [1]
    if denom > 1:
        support.append(gw.path_invert(fresh, word))
        support += [gw.parse_word(fresh, random_letter_word(fresh, rng, 4))
                    for _ in range(rng.randint(0, 3))]
        cuts = sorted(rng.sample(range(1, denom - 1), len(support) - 2))
        shares += [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denom - 1])]
    rng.shuffle(shares)
    spec = gen.RandomWalkSpec(tuple(support),
                              tuple(Fraction(k, denom) for k in shares), 1,
                              rng.getrandbits(64))
    wanted = sorted(set(lengths))
    trial = rng.randrange(3)
    want = oc.walk_by_segments(fresh, spec, trial, wanted)
    assert want == [(n, oc.walk_from_identity(fresh, spec, n, trial))
                    for n in wanted]
    other = letter_spec(used, 1, seed)
    for _ in gen._walk(used, gen._walk_plan(used, other), other.seed, 0,
                       [40]):
        pass
    for gog in (fresh, used):
        plan = gen._walk_plan(gog, spec)
        assert [(n, gw.NormalForm(gog.base_vertex, tuple(steps), tail))
                for n, steps, tail in gen._walk(gog, plan, spec.seed, trial,
                                                wanted)] == want
    cums, tables = plan.cums, plan.tables
    assert plan.denom == denom and (tables is None) == (denom > 255)
    bits, rand = random.Random(seed), random.Random(seed)
    drawn = gen._draws(bits.getrandbits, denom, cums, tables, wanted[-1])
    assert list(drawn) == [bisect.bisect_right(cums, rand.randrange(denom))
                           for _ in range(wanted[-1])]
    assert bits.getstate() == rand.getstate()


def fresh_copy(gog):
    """A new graph on the same groups and edges, with nothing kept."""
    return gw.GraphOfGroups(gog.vertices.items(), gog.edges.values(),
                            gog.base_vertex, gog.spanning_tree)


def walked(gog, spec, trial, lengths):
    """(n, normal form) at each of the lengths of one walk."""
    return [(n, gw.NormalForm(gog.base_vertex, tuple(steps), tail))
            for n, steps, tail in gen._walk(gog, gen._walk_plan(gog, spec),
                                            spec.seed, trial, lengths)]


GRAM_SIZES = {1: 8, 2: 8, 3: 4, 4: 4, 5: 2, 16: 2, 17: 1, 257: 1}
"""Support sizes and the gram length each walks with."""


@pytest.mark.parametrize("size", sorted(GRAM_SIZES))
@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(SEAM)), seed=st.integers(0, 2**32 - 1),
       big=st.booleans(),
       lengths=st.lists(st.integers(0, 70), min_size=1, max_size=4))
@example(name="sl2z", seed=1, big=False, lengths=[3, 17, 70])
@example(name="z2z3", seed=2, big=True, lengths=[1, 9, 63])
def test_gram_walks_match_both_oracles(size, name, seed, big, lengths):
    # Supports of every gram length, up to one of more than 256 elements,
    # whose draws are a list, denominators on both sides of the byte
    # tables' bound of 255, and lengths that leave draws past the
    # last whole gram of a segment.  The walk is taken three times on a
    # fresh graph, and three times on a graph whose compiled picks two
    # other measures on the same loops, walked until they compile grams,
    # filled first; then twice more on the fresh graph once its plan
    # compiles grams, so its grams are compiled, then pushed compiled.
    # Every walk equals the segment walk and the walk by products.
    gog = SEAM[name]
    rng = random.Random(seed)
    base = gog.vertices[gog.base_vertex]
    support = []
    for _ in range(size):
        if rng.random() < 0.25:
            support.append(gw.NormalForm(gog.base_vertex, (),
                                         rng.randrange(base.order)))
        else:
            support.append(gw.parse_word(
                gog, random_letter_word(gog, rng, 5)))
    denom = (rng.randint(max(size, 256), 400) if big or size > 255
             else rng.randint(size, 255))
    cuts = sorted(rng.sample(range(1, denom), size - 1))
    shares = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denom])]
    spec = gen.RandomWalkSpec(tuple(support),
                              tuple(Fraction(k, denom) for k in shares), 1,
                              rng.getrandbits(64))
    wanted = sorted(set(lengths))
    trial = rng.randrange(3)
    want = oc.walk_by_segments(gog, spec, trial, wanted)
    assert want == [(n, oc.walk_from_identity(gog, spec, n, trial))
                    for n in wanted]
    fresh, used = fresh_copy(gog), fresh_copy(gog)
    uniform = tuple(Fraction(1, size) for _ in support)
    for other in (letter_spec(used, 1, seed),
                  spec._replace(weights=uniform, seed=seed)):
        walk_until_compiling(used, other)
    for g in (fresh, used):
        assert gen._walk_plan(g, spec).gram == GRAM_SIZES[size]
        for _ in range(3):
            assert walked(g, spec, trial, wanted) == want
    walk_until_compiling(fresh, spec)
    for _ in range(2):
        assert walked(fresh, spec, trial, wanted) == want


def walk_until_compiling(gog, spec):
    """Walks of the spec on gog, each 70 steps long, until its plan has
    drawn more grams than there are, so that the next walk compiles."""
    plan = gen._walk_plan(gog, spec)
    trial = 0
    while plan.gram > 1 and plan.drawn <= len(spec.support) ** plan.gram:
        walked(gog, spec, trial % 3, [70])
        trial += 1


def warm_letter_walks(gog):
    """The letter measure of gog, walked on it until every gram of the
    measure is compiled."""
    spec = letter_spec(gog, 1, 3)
    plan = gen._walk_plan(gog, spec)
    grams = len(spec.support) ** plan.gram
    trial = 0
    while sum(v is not None for v in plan.grams.values()) < grams:
        walked(gog, spec, trial, [512])
        trial += 1
    return spec


def test_warm_walk_pushes_one_record_per_gram(monkeypatch):
    # On sl2z the letter measure has 4 letters, so a gram is 4 draws; once
    # its 256 grams are compiled a 512-step walk pushes 128 records.
    gog = fresh_copy(SL2Z)
    spec = warm_letter_walks(gog)
    assert gen._walk_plan(gog, spec).gram == 4
    fed = []
    real = gen._push_picks

    def counting(gog, steps, tail, records):
        records = list(records)
        fed.append(len(records))
        return real(gog, steps, tail, records)

    monkeypatch.setattr(gen, "_push_picks", counting)
    spec = spec._replace(seed=99)
    for lengths in ([512], [32, 128, 512]):
        fed.clear()
        assert walked(gog, spec, 0, lengths) == [
            (n, oc.walk_from_identity(gog, spec, n, 0)) for n in lengths]
        assert sum(fed) <= 128


def test_grams_drawn_once_are_not_compiled(monkeypatch):
    # On a fresh graph, a short walk compiles no gram: its plan has drawn
    # 8 of the 256 grams of the letter measure, and each draw is pushed
    # as its single pick.
    gog = fresh_copy(SL2Z)
    spec = letter_spec(gog, 1, 3)
    plan = gen._walk_plan(gog, spec)

    def no_compiling(*args):
        raise AssertionError("a gram was compiled")

    monkeypatch.setattr(gen, "_compiled", no_compiling)
    assert walked(gog, spec, 0, [8, 32]) == [
        (n, oc.walk_from_identity(gog, spec, n, 0)) for n in (8, 32)]
    assert (plan.drawn, plan.grams) == (8, {})


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(SEAM)), size=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(0, 64), min_size=1, max_size=3),
       walks=st.integers(1, 40))
def test_grams_are_compiled_once_more_are_drawn_than_there_are(
        name, size, seed, lengths, walks):
    # Grams are cut from the start of each segment; counting the grams of
    # each segment over the walks in order, those of the segments up to
    # the one that takes the count past the number of grams are pushed
    # as single picks, and every gram of a later segment is compiled.
    # Small supports repeat grams inside one segment as well as across
    # segments, and cross the count within a few walks.
    gog = fresh_copy(SEAM[name])
    letters = letter_spec(gog, 1, seed).support
    spec = gen.uniform_spec(gog, (letters * 2)[:size], 1, seed)
    plan = gen._walk_plan(gog, spec)
    k = plan.gram
    wanted = sorted(set(lengths))
    count, compiled = 0, set()
    for trial in range(walks):
        drawn = gen._draws(
            random.Random(gen.splitmix64(spec.seed, trial)).getrandbits,
            plan.denom, plan.cums, plan.tables, wanted[-1])
        for lo, hi in zip([0, *wanted], wanted):
            keys = [int.from_bytes(drawn[i:i + k], sys.byteorder)
                    for i in range(lo, hi - k + 1, k)]
            if count <= size ** k:
                count += len(keys)
            if count > size ** k:
                compiled.update(keys)
        assert walked(gog, spec, trial, wanted) == [
            (n, oc.walk_from_identity(gog, spec, n, trial)) for n in wanted]
    assert set(plan.grams) == compiled
    assert None not in plan.grams.values()


def test_turns_read_no_neighbor_once_frames_exist(monkeypatch):
    # The frame keeps the neighbor in each direction, so once it exists a
    # Whitehead graph makes no neighbor product: on an sl2z experiment and
    # on the counterexample's fills.
    cex = load_group("counterexample")
    rng = random.Random(4)
    words = [nf(cex, random_letter_word(cex, rng, 8)) for _ in range(40)]
    words = [g for g in words if bt.classify(cex, g).kind == "hyperbolic"]
    spec = letter_spec(SL2Z, 4, 7)
    want = (gen.run_genericity_experiment(SL2Z, spec, [8, 32]),
            [gen.fills(cex, g) for g in words])
    assert words

    def no_neighbor(*args):
        raise AssertionError("a Whitehead graph made a neighbor product")

    monkeypatch.setattr(bt, "neighbor", no_neighbor)
    assert (gen.run_genericity_experiment(SL2Z, spec, [8, 32]),
            [gen.fills(cex, g) for g in words]) == want


def no_products(*args):
    raise AssertionError("the walk made a path_multiply product")


def test_walk_makes_no_products(monkeypatch):
    lengths = [0, 32, 8, 32, 64]
    for gog in WALKED.values():
        spec = letter_spec(gog, 4, 7)
        want = oc.experiment_by_rewalking(gog, spec, lengths)
        gen.validate_walk_spec(gog, spec)
        with monkeypatch.context() as m:
            m.setattr(gen, "_check_generation", lambda gog, support: None)
            m.setattr(gen, "path_multiply", no_products)
            rows = gen.run_genericity_experiment(gog, spec, lengths)
            walked = [gen.sample_walk(gog, spec, n, 1) for n in lengths]
        assert [(r.n, r.trials, r.hyperbolic_count, r.filling_count)
                for r in rows] == want
        assert walked == [oc.walk_from_identity(gog, spec, n, 1)
                          for n in lengths]
