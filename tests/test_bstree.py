"""Tests for the tree layer: adjacency, distances, classification, axes.

The algebraic distance (normal-form projection) and the elliptic or
hyperbolic classification are cross-checked against breadth-first search
through neighbor lists and against exact integer matrices.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
import tree_oracle as tro
import vfree.bstree as bt
import vfree.gogwords as gw
from vfree.cli import load_group
from fixtures import (build_z2_z3, random_letter_word, random_words,
                      seam_presentations)

SL2Z = gw.build_sl2z()
Z2Z3 = build_z2_z3()
BASE = bt.base_vertex(SL2Z)
SEAM = seam_presentations()


def nf(gog, text):
    return gw.normal_form(gog, gw.parse_word(gog, text))


SL2Z_LETTERS = {"a": nf(SL2Z, "a"), "A": nf(SL2Z, "a^-1"),
                "b": nf(SL2Z, "b"), "B": nf(SL2Z, "b^-1")}


def fold(gog, letters, word):
    out = gw.identity_nf(gog)
    for ch in word:
        out = gw.path_multiply(gog, out, letters[ch])
    return out


def sl2z_elt(word):
    return fold(SL2Z, SL2Z_LETTERS, word)


# -- vertices and adjacency ---------------------------------------------------

def test_base_and_standard_vertices():
    assert BASE.orbit == "vA"
    assert BASE.coset_rep.steps == ()
    vb = bt.standard_vertex(SL2Z, "vB")
    assert vb.orbit == "vB"
    assert len(vb.coset_rep.steps) == 1
    assert bt.distance(SL2Z, BASE, vb) == 1
    with pytest.raises(gw.GogError):
        bt.standard_vertex(SL2Z, "vC")


@pytest.mark.parametrize("name", ["sl2z", "counterexample", "z2z3"])
def test_stabilizer_entries_are_generator_letters(name):
    gog = load_group(name)
    for vid, grp in gog.vertices.items():
        stab = bt.stabilizer(gog, bt.standard_vertex(gog, vid))
        assert len(stab) == grp.order
        assert all(bt.translate(gog, s, bt.standard_vertex(gog, vid))
                   == bt.standard_vertex(gog, vid) for s in stab)
        for letter, idx in grp.generators.items():
            assert stab[idx] == nf(gog, letter)


def test_tree_vertex_is_a_named_tuple_of_its_fields():
    v = bt.neighbors(SL2Z, BASE)[1]
    plain = (v.orbit, v.coset_rep)
    assert hash(v) == hash(plain)
    assert v == plain and tuple(v) == plain
    assert repr(v) == ("TreeVertex(orbit='vB', coset_rep=NormalForm("
                       "start='vA', steps=((1, Traversal(edge='e', dir=0)),),"
                       " tail=0))")


def test_neighbor_counts_match_edge_indices():
    # [Z/4 : Z/2] = 2 around the Z/4 vertex, [Z/6 : Z/2] = 3 around Z/6.
    nbrs_a = bt.neighbors(SL2Z, BASE)
    assert len(nbrs_a) == 2 and len(set(nbrs_a)) == 2
    assert all(v.orbit == "vB" for v in nbrs_a)
    vb = bt.standard_vertex(SL2Z, "vB")
    nbrs_b = bt.neighbors(SL2Z, vb)
    assert len(nbrs_b) == 3 and len(set(nbrs_b)) == 3
    assert all(v.orbit == "vA" for v in nbrs_b)
    # Free product Z/2 * Z/3: trivial edge group, so 2 and 3 neighbors.
    assert len(bt.neighbors(Z2Z3, bt.base_vertex(Z2Z3))) == 2
    assert len(bt.neighbors(Z2Z3, bt.standard_vertex(Z2Z3, "vB"))) == 3


@pytest.mark.parametrize("name", ["s3-amalgam", "counterexample-relabelled",
                                  "klein-hnn"])
def test_neighbor_depends_only_on_the_coset(name):
    gog = SEAM[name]
    for v in bt.ball(gog, bt.base_vertex(gog), 2):
        grp = gog.vertices[v.orbit]
        for t in gog.incident(v.orbit):
            image = [gog.edges[t.edge].inj[t.dir](c)
                     for c in gog.edges[t.edge].group.elements()]
            for r in gog.transversal(t):
                want = bt.neighbor(gog, v, r, t)
                assert want in bt.neighbors(gog, v)
                assert all(bt.neighbor(gog, v, grp.mul(r, h), t) == want
                           for h in image)


@pytest.mark.parametrize("name", sorted(SEAM))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_directions_name_neighbors_and_stabilizers_act_on_them(name, data):
    """At a standard vertex v, or a translate of it by a short word:
    direction inverts neighbor, act(x, d) is where translating by
    stabilizer entry x sends the neighbor in direction d, and act is an
    action of the vertex group."""
    gog = SEAM[name]
    v = bt.standard_vertex(gog, data.draw(st.sampled_from(
        sorted(gog.vertices))))
    letters = [n + p for n, _ in gw.generator_letters(gog)
               for p in ("", "^-1")]
    word = data.draw(st.lists(st.sampled_from(letters), max_size=2))
    v = bt.translate(gog, gw.parse_word(gog, " ".join(word)), v)

    def at(d):
        return v if d is None else bt.neighbor(gog, v, d[1], d[0])
    dirs = [(t, r) for t in gog.incident(v.orbit) for r in gog.transversal(t)]
    assert tro.direction(gog, v, v) is None
    assert [tro.direction(gog, v, at(d)) for d in dirs] == dirs
    grp, stab = gog.vertices[v.orbit], bt.stabilizer(gog, v)
    x, y = (data.draw(st.integers(0, grp.order - 1)) for _ in range(2))
    d = data.draw(st.sampled_from(dirs))
    assert at(bt.act(gog, x, d)) == bt.translate(gog, stab[x], at(d))
    assert bt.act(gog, x, bt.act(gog, y, d)) == \
        bt.act(gog, grp.mul(x, y), d)
    assert bt.act(gog, x, None) is None
    farther = next(w for w in bt.neighbors(gog, at(d)) if w != v)
    with pytest.raises(gw.GogError, match="not adjacent"):
        tro.direction(gog, v, farther)


@pytest.mark.parametrize("name", sorted(SEAM))
def test_frame_keeps_the_neighbor_in_each_direction(name):
    # The frame's direction map lists the neighbors of the standard vertex
    # in the order neighbors does, each under the direction that names it.
    gog = SEAM[name]
    for orbit in sorted(gog.vertices):
        frame = bt.standard_frame(gog, orbit)
        assert list(frame.directions.values()) == \
            bt.neighbors(gog, frame.vertex)
        assert frame.neighbors == frozenset(frame.directions.values())
        assert all(tro.direction(gog, frame.vertex, w) == d
                   for d, w in frame.directions.items())


def test_neighbors_are_symmetric_and_at_distance_one():
    for v in [BASE, bt.standard_vertex(SL2Z, "vB")]:
        for w in bt.neighbors(SL2Z, v):
            assert bt.distance(SL2Z, v, w) == 1
            assert v in bt.neighbors(SL2Z, w)


def test_ball_growth_is_biregular():
    dist = bt.ball(SL2Z, BASE, 6)
    spheres = [0] * 7
    for d in dist.values():
        spheres[d] += 1
    # (2,3)-biregular tree: new branches alternate x1 and x2.
    assert spheres == [1, 2, 4, 4, 8, 8, 16]
    for v, d in dist.items():
        assert bt.distance(SL2Z, BASE, v) == d


# -- distances ----------------------------------------------------------------

def test_distance_examples():
    vb = bt.standard_vertex(SL2Z, "vB")
    assert bt.distance(SL2Z, BASE, BASE) == 0
    assert bt.distance(SL2Z, BASE, vb) == 1
    moved = bt.translate(SL2Z, sl2z_elt("ab"), BASE)
    assert bt.distance(SL2Z, BASE, moved) == 2


def test_distance_is_a_metric():
    verts = list(bt.ball(SL2Z, BASE, 4))
    rng = random.Random(403)
    for _ in range(60):
        u, v, w = (rng.choice(verts) for _ in range(3))
        duv = bt.distance(SL2Z, u, v)
        assert duv == bt.distance(SL2Z, v, u)
        assert (duv == 0) == (u == v)
        assert duv <= bt.distance(SL2Z, u, w) + bt.distance(SL2Z, w, v)
        assert (duv == 1) == (v in bt.neighbors(SL2Z, u))


def test_distance_matches_bfs():
    verts = list(bt.ball(SL2Z, BASE, 4))
    rng = random.Random(404)
    for _ in range(40):
        u, v = rng.choice(verts), rng.choice(verts)
        assert bt.distance(SL2Z, u, v) == tro.bfs_distance(SL2Z, u, v, 10)


def test_translate_is_an_isometric_action():
    verts = list(bt.ball(SL2Z, BASE, 3))
    rng = random.Random(405)
    for w1, w2 in zip(random_words("aAbB", 8, 5, 406),
                      random_words("aAbB", 8, 5, 407)):
        g, h = sl2z_elt(w1), sl2z_elt(w2)
        gh = gw.path_multiply(SL2Z, g, h)
        u, v = rng.choice(verts), rng.choice(verts)
        assert bt.translate(SL2Z, gh, u) == bt.translate(
            SL2Z, g, bt.translate(SL2Z, h, u))
        assert bt.distance(SL2Z, bt.translate(SL2Z, g, u),
                           bt.translate(SL2Z, g, v)) == bt.distance(SL2Z, u, v)
    ident = gw.identity_nf(SL2Z)
    assert all(bt.translate(SL2Z, ident, v) == v for v in verts)


# -- classification -----------------------------------------------------------

def test_classify_elliptic_examples():
    ca = bt.classify(SL2Z, sl2z_elt("a"))
    assert ca.kind == "elliptic" and ca.translation_length == 0
    assert ca.fixed_vertex == BASE
    assert bt.translate(SL2Z, sl2z_elt("a"), BASE) == BASE
    cb = bt.classify(SL2Z, sl2z_elt("b"))
    assert cb.kind == "elliptic"
    assert cb.fixed_vertex == bt.standard_vertex(SL2Z, "vB")
    assert bt.translate(SL2Z, sl2z_elt("b"), cb.fixed_vertex) == cb.fixed_vertex
    cs = bt.classify(Z2Z3, gw.parse_word(Z2Z3, "s"))
    assert cs.kind == "elliptic" and cs.fixed_vertex == bt.base_vertex(Z2Z3)


def test_classify_hyperbolic_examples():
    c = bt.classify(SL2Z, sl2z_elt("ab"))
    assert c.kind == "hyperbolic"
    assert c.translation_length == 2
    assert c.fixed_vertex is None
    assert bt.classify(SL2Z, sl2z_elt("ababab")).translation_length == 6
    st = bt.classify(Z2Z3, gw.parse_word(Z2Z3, "s t"))
    assert st.kind == "hyperbolic" and st.translation_length == 2


def test_translation_length_is_conjugation_invariant():
    g = sl2z_elt("ab")
    for w in random_words("aAbB", 20, 6, 408):
        h = sl2z_elt(w)
        c = bt.classify(SL2Z, gw.conjugate(SL2Z, h, g))
        assert c.kind == "hyperbolic" and c.translation_length == 2


def test_translation_length_of_powers():
    rng = random.Random(409)
    found = 0
    for w in random_words("aAbB", 60, 6, 410):
        g = sl2z_elt(w)
        c = bt.classify(SL2Z, g)
        if c.kind != "hyperbolic":
            continue
        found += 1
        p = gw.identity_nf(SL2Z)
        for n in range(1, 5):
            p = gw.path_multiply(SL2Z, p, g)
            assert bt.classify(SL2Z, p).translation_length == \
                n * c.translation_length
        if found >= 8:
            break
    assert found >= 8


def test_classify_against_matrix_order():
    # Finite order (elliptic) iff the image matrix has finite order.
    for w in random_words("aAbB", 60, 8, 411):
        mat_finite = oc.mat_order(oc.mat_of_word(w, oc.SL2Z_ASSIGN)) is not None
        c = bt.classify(SL2Z, sl2z_elt(w))
        assert (c.kind == "elliptic") == mat_finite


def test_classify_against_ball_displacement():
    for w in random_words("aAbB", 20, 8, 412):
        g = sl2z_elt(w)
        c = bt.classify(SL2Z, g)
        want = 0 if c.kind == "elliptic" else c.translation_length
        assert tro.min_displacement(SL2Z, g, radius=6) == want


# -- axis windows -------------------------------------------------------------

def test_axis_window_basic():
    g = sl2z_elt("ab")
    seg = bt.axis_window(SL2Z, g, 1)
    assert seg.period == 2
    assert seg.element == g
    assert len(seg.vertices) == 3
    v0, v1, v2 = seg.vertices
    assert bt.distance(SL2Z, v0, v1) == 1 and bt.distance(SL2Z, v1, v2) == 1
    assert bt.distance(SL2Z, v0, v2) == 2
    assert bt.translate(SL2Z, g, v0) == v2


def test_axis_window_is_geodesic_across_periods():
    g = sl2z_elt("ab")
    seg = bt.axis_window(SL2Z, g, 3)
    assert len(seg.vertices) == 7
    for i in range(7):
        for j in range(7):
            assert bt.distance(SL2Z, seg.vertices[i], seg.vertices[j]) == \
                abs(i - j)
    cur = seg.vertices[0]
    for k in range(3):
        cur = bt.translate(SL2Z, g, cur)
        assert cur == seg.vertices[2 * (k + 1)]


def test_axis_of_square_runs_along_axis():
    g = sl2z_elt("ab")
    two = bt.axis_window(SL2Z, g, 2)
    sq = bt.axis_window(SL2Z, gw.path_multiply(SL2Z, g, g), 1)
    assert sq.period == 4
    assert sq.vertices == two.vertices
    anchored = bt.axis_window(SL2Z, gw.path_multiply(SL2Z, g, g), 1,
                              anchor=two.vertices[0])
    assert anchored.vertices == two.vertices


def test_axis_window_equivariance():
    g = sl2z_elt("ab")
    seg = bt.axis_window(SL2Z, g, 1)
    for w in random_words("aAbB", 10, 5, 413):
        h = sl2z_elt(w)
        moved = tuple(bt.translate(SL2Z, h, v) for v in seg.vertices)
        conj_seg = bt.axis_window(SL2Z, gw.conjugate(SL2Z, h, g), 1,
                                  anchor=moved[0])
        assert conj_seg.vertices == moved


@pytest.mark.parametrize("name", sorted(SEAM))
def test_axis_window_matches_prefix_oracle(name):
    gog = SEAM[name]
    rng = random.Random(4100 + sorted(SEAM).index(name))
    checked = 0
    while checked < 12:
        g = nf(gog, random_letter_word(gog, rng, 7))
        if bt.classify(gog, g).kind != "hyperbolic":
            continue
        checked += 1
        for periods in (1, 2, 3):
            assert bt.axis_window(gog, g, periods).vertices == \
                tro.axis_window_by_prefixes(gog, g, periods)
        h = nf(gog, random_letter_word(gog, rng, 4))
        anchor = bt.translate(gog, h, bt.axis_window(gog, g, 1).vertices[0])
        hgh = gw.conjugate(gog, h, g)
        assert bt.axis_window(gog, hgh, 2, anchor=anchor).vertices == \
            tro.axis_window_by_prefixes(gog, hgh, 2, anchor=anchor)


def test_axis_window_rejects_bad_input():
    with pytest.raises(gw.GogError, match="no axis"):
        bt.axis_window(SL2Z, sl2z_elt("a"), 1)
    with pytest.raises(gw.GogError):
        bt.axis_window(SL2Z, sl2z_elt("ab"), 0)
    seg = bt.axis_window(SL2Z, sl2z_elt("ab"), 1)
    v0, v1, v2 = seg.vertices
    off_axis = [w for w in bt.neighbors(SL2Z, v1) if w not in (v0, v2)]
    assert off_axis
    with pytest.raises(gw.GogError, match="anchor"):
        bt.axis_window(SL2Z, sl2z_elt("ab"), 1, anchor=off_axis[0])
