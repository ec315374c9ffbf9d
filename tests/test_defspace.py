"""Tests for the deformation calculus: predicates, moves, the degree-sum
invariant, graph-of-groups isomorphism, and capped enumeration.

Move correctness is cross-checked two ways: the quotient degree sum must be
constant along random legal move sequences, and collapse word maps must
send a word to the identity exactly when the source word was trivial.
"""

import itertools
import random

import pytest

import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.gogwords as gw
import vfree.cli as cli
from fixtures import assert_compiles_like_checked, build_counterexample_gog
from vfree.fingroup import GroupHom
from vfree.gogwords import Edge, GraphOfGroups

SL2Z = gw.build_sl2z()
ROSE3 = gw.build_rose(["x", "y", "z"])


def build_star():
    """Z/2 * Z/2 * Z/2 as a two-edge star with trivial edge groups."""
    a, b, c = (fg.build_cyclic(2, n) for n in ("p", "q", "r"))
    t1, t2 = fg.build_cyclic(1, "i"), fg.build_cyclic(1, "j")
    e1 = Edge("e1", t1, ("v0", "v1"),
              (GroupHom(t1, a, (0,)), GroupHom(t1, b, (0,))))
    e2 = Edge("e2", t2, ("v0", "v2"),
              (GroupHom(t2, a, (0,)), GroupHom(t2, c, (0,))))
    return GraphOfGroups([("v0", a), ("v1", b), ("v2", c)],
                         [e1, e2], "v0", ["e1", "e2"])


def build_point():
    return GraphOfGroups([("v", fg.build_cyclic(1))], [], "v", [])


def subdivide_sl2z():
    H = tuple(sorted(set(SL2Z.edges["e"].inj[0].mapping)))
    move = ds.expansion_move("vA", H, moved=[("e", 0)],
                             new_vertex="m", new_edge="f")
    return ds.apply_move(SL2Z, move)


# -- predicates and the degree sum ---------------------------------------------

def test_reduced_examples():
    assert ds.is_reduced(SL2Z)
    assert ds.is_reduced(build_counterexample_gog())
    assert ds.is_reduced(build_star())
    # Edge group filling one endpoint: collapsible, hence not reduced.
    z2, z4 = fg.build_cyclic(2, "s"), fg.build_cyclic(4, "a")
    ec = fg.build_cyclic(2, "c")
    e = Edge("e", ec, ("u", "w"),
             (GroupHom(ec, z2, (0, 1)), GroupHom(ec, z4, (0, 2))))
    g = GraphOfGroups([("u", z2), ("w", z4)], [e], "u", ["e"])
    assert not ds.is_reduced(g)
    assert ds.collapsible_edges(g) == ["e"]


def test_redundancy_uses_tree_degrees():
    # Orbit vertices of tree degree 2 are redundant; the subdivision vertex
    # sits between two index-1 ends.
    sub = subdivide_sl2z()
    assert ds.tree_degree(sub, "m") == 2
    assert not ds.is_non_redundant(sub)
    assert ds.is_non_redundant(build_counterexample_gog())
    assert ds.is_non_redundant(ROSE3)
    # The standard order-4 vertex also meets the tree in just 2 edges.
    assert ds.tree_degree(SL2Z, "vA") == 2
    assert not ds.is_non_redundant(SL2Z)


def test_minimality():
    assert ds.is_minimal(SL2Z)
    assert ds.is_minimal(build_point())
    z4a, z4b = fg.build_cyclic(4, "a"), fg.build_cyclic(4, "b")
    ec = fg.build_cyclic(4, "c")
    e = Edge("e", ec, ("u", "w"),
             (GroupHom(ec, z4a, (0, 1, 2, 3)), GroupHom(ec, z4b, (0, 1, 2, 3))))
    g = GraphOfGroups([("u", z4a), ("w", z4b)], [e], "u", ["e"])
    assert not ds.is_minimal(g)


def test_degree_sum_examples():
    s = ds.degree_sum(SL2Z)
    assert s.value == -2 and s.terms == (("vA", 1), ("vB", 1))
    assert ds.degree_sum(build_point()).value == -2
    assert ds.degree_sum(ROSE3).value == 4


def test_degree_sum_expansion_bookkeeping():
    # A degree-6 vertex expanded two ways: the new vertex takes degree 2 or
    # degree 3, and (6-2)+(2-2) = (5-2)+(3-2) = 4 throughout.
    ident = (ROSE3.vertices["v"].identity,)
    one = ds.apply_move(ROSE3, ds.expansion_move("v", ident, [("x", 0)]))
    two = ds.apply_move(ROSE3, ds.expansion_move("v", ident,
                                                 [("x", 0), ("y", 0)]))
    assert sorted(d for _, d in ds.degree_sum(one).terms) == [2, 6]
    assert sorted(d for _, d in ds.degree_sum(two).terms) == [3, 5]
    assert ds.degree_sum(one).value == ds.degree_sum(two).value == 4


# -- elementary moves ----------------------------------------------------------

def test_expansion_collapse_roundtrip():
    sub = subdivide_sl2z()
    assert sorted(sub.vertices) == ["m", "vA", "vB"]
    assert not ds.is_reduced(sub)
    assert ds.degree_sum(sub).value == ds.degree_sum(SL2Z).value
    assert_compiles_like_checked(sub)
    for eid in ("f", "e"):
        back = ds.apply_move(sub, ds.collapse_move(eid))
        assert ds.are_gog_isomorphic(back, SL2Z)
        assert_compiles_like_checked(back)


def test_collapse_word_map():
    sub = subdivide_sl2z()
    # Collapsing f absorbs the middle Z/2 into the order-4 side.
    assert ds.move_word_map(sub, ds.collapse_move("f")) == \
        {"a": "a", "b": "b", "s1": "a a"}
    assert ds.move_word_map(sub, ds.collapse_move("e")) == \
        {"a": "a", "b": "b", "s1": "b b b"}


def _substitute(tokens, mapping):
    out = []
    for name, exp in tokens:
        image = [(t.partition("^")[0], int(t.partition("^")[2] or 1))
                 for t in mapping[name].split()]
        out.extend([(n, -e) for n, e in reversed(image)]
                   if exp < 0 else image)
    return out


def _text(tokens):
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in tokens)


def test_collapse_word_map_preserves_triviality():
    sub = subdivide_sl2z()
    target = ds.apply_move(sub, ds.collapse_move("f"))
    mapping = ds.move_word_map(sub, ds.collapse_move("f"))
    rng = random.Random(501)
    letters = sorted(mapping)
    seen_trivial = 0
    for _ in range(150):
        tokens = [(rng.choice(letters), rng.choice((1, -1)))
                  for _ in range(rng.randint(1, 6))]
        src = gw.normal_form(sub, gw.parse_word(sub, _text(tokens)))
        img = gw.normal_form(target,
                             gw.parse_word(target, _text(_substitute(tokens, mapping))))
        assert gw.is_identity(sub, src) == gw.is_identity(target, img)
        seen_trivial += gw.is_identity(sub, src)
    assert seen_trivial > 0


def test_collapse_errors():
    with pytest.raises(gw.GogError, match="proper at both"):
        ds.apply_move(SL2Z, ds.collapse_move("e"))
    with pytest.raises(gw.GogError, match="unknown edge"):
        ds.apply_move(SL2Z, ds.collapse_move("zz"))
    with pytest.raises(gw.GogError, match="distinct endpoints"):
        ds.apply_move(ROSE3, ds.collapse_move("x"))
    # A collapsible edge outside the spanning tree is refused.
    z2a, z2b = fg.build_cyclic(2, "s"), fg.build_cyclic(2, "t")
    e1c, e2c = fg.build_cyclic(2, "c"), fg.build_cyclic(2, "d")
    e1 = Edge("e1", e1c, ("u", "w"),
              (GroupHom(e1c, z2a, (0, 1)), GroupHom(e1c, z2b, (0, 1))))
    e2 = Edge("e2", e2c, ("u", "w"),
              (GroupHom(e2c, z2a, (0, 1)), GroupHom(e2c, z2b, (0, 1))))
    g = GraphOfGroups([("u", z2a), ("w", z2b)], [e1, e2], "u", ["e1"])
    with pytest.raises(gw.GogError, match="spanning tree"):
        ds.apply_move(g, ds.collapse_move("e2"))


def test_expansion_errors():
    grp = SL2Z.vertices["vA"]
    with pytest.raises(gw.GogError, match="not closed"):
        ds.apply_move(SL2Z, ds.expansion_move("vA", (grp.identity, 1)))
    with pytest.raises(gw.GogError, match="not attached"):
        ds.apply_move(SL2Z, ds.expansion_move("vA", (0, 2), [("e", 1)]))
    with pytest.raises(gw.GogError, match="does not map into"):
        ds.apply_move(SL2Z, ds.expansion_move("vA", (grp.identity,), [("e", 0)]))
    with pytest.raises(gw.GogError, match="dangling"):
        ds.apply_move(SL2Z, ds.expansion_move("vA", (0, 2)))
    with pytest.raises(gw.GogError, match="already in use"):
        ds.apply_move(SL2Z, ds.expansion_move("vA", (0, 2), [("e", 0)],
                                              new_vertex="vB"))


def test_slide_star():
    star = build_star()
    slid = ds.apply_move(star, ds.slide_move("e2", "e1"))
    assert_compiles_like_checked(slid)
    assert ds.are_gog_isomorphic(slid, star)
    assert ds.is_reduced(slid)
    assert ds.degree_sum(slid).value == ds.degree_sum(star).value


def test_slide_preserves_group_multisets():
    # Z/4 *_{Z/2} Z/4 with a free Z/2 leaf; slide the leaf edge across.
    z4a, z4b, z2w = (fg.build_cyclic(4, "a"), fg.build_cyclic(4, "b"),
                     fg.build_cyclic(2, "w"))
    ec, fc = fg.build_cyclic(2, "c"), fg.build_cyclic(1, "d")
    e = Edge("e", ec, ("u", "m"),
             (GroupHom(ec, z4a, (0, 2)), GroupHom(ec, z4b, (0, 2))))
    f = Edge("f", fc, ("u", "w"),
             (GroupHom(fc, z4a, (0,)), GroupHom(fc, z2w, (0,))))
    g = GraphOfGroups([("u", z4a), ("m", z4b), ("w", z2w)],
                      [e, f], "u", ["e", "f"])
    slid = ds.apply_move(g, ds.slide_move("f", "e"))
    assert_compiles_like_checked(slid)
    assert slid.edges["f"].ends == ("m", "w")
    vs = sorted(grp.order for grp in slid.vertices.values())
    es = sorted(eo.group.order for eo in slid.edges.values())
    assert vs == [2, 4, 4] and es == [1, 2]
    assert ds.is_reduced(slid) == ds.is_reduced(g) == True
    assert ds.degree_sum(slid).value == ds.degree_sum(g).value


def test_slide_errors():
    star = build_star()
    with pytest.raises(gw.GogError, match="itself"):
        ds.apply_move(star, ds.slide_move("e1", "e1"))
    z4a, z4b, z2w = (fg.build_cyclic(4, "a"), fg.build_cyclic(4, "b"),
                     fg.build_cyclic(2, "w"))
    ec, fc = fg.build_cyclic(2, "c"), fg.build_cyclic(1, "d")
    e = Edge("e", ec, ("u", "m"),
             (GroupHom(ec, z4a, (0, 2)), GroupHom(ec, z4b, (0, 2))))
    f = Edge("f", fc, ("u", "w"),
             (GroupHom(fc, z4a, (0,)), GroupHom(fc, z2w, (0,))))
    g = GraphOfGroups([("u", z4a), ("m", z4b), ("w", z2w)],
                      [e, f], "u", ["e", "f"])
    with pytest.raises(gw.GogError, match="slidable"):
        ds.apply_move(g, ds.slide_move("e", "f"))


def _random_move(gog, rng):
    for _ in range(40):
        if rng.random() < 0.4:
            cands = [e for e in ds.collapsible_edges(gog)
                     if e in gog.spanning_tree]
            if not cands:
                continue
            return ds.collapse_move(rng.choice(cands))
        w = rng.choice(sorted(gog.vertices))
        sub = rng.choice(fg.all_subgroups(gog.vertices[w]))
        ends = [(t.edge, t.dir) for t in gog.incident(w)]
        allowed = [p for p in ends
                   if set(gog.edges[p[0]].inj[p[1]].mapping)
                   <= set(sub.elements)]
        moved = [p for p in allowed if rng.random() < 0.6]
        move = ds.expansion_move(w, sub.elements, moved)
        try:
            ds.apply_move(gog, move)
        except gw.GogError:
            continue
        return move
    return None


def test_degree_sum_invariant_along_random_sequences():
    starts = [SL2Z, build_star(), ROSE3]
    for seed in (601, 602, 603):
        rng = random.Random(seed)
        for trial in range(34):
            cur = starts[trial % len(starts)]
            want = ds.degree_sum(cur).value
            for _ in range(3):
                move = _random_move(cur, rng)
                if move is None:
                    break
                cur = ds.apply_move(cur, move)
                assert ds.degree_sum(cur).value == want
                assert_compiles_like_checked(cur)


def test_moves_check_no_injection_and_no_table(monkeypatch):
    # A move's result is built from checked parts: neither its injections
    # nor the table of an expansion's new vertex group are checked again.
    sub, star = subdivide_sl2z(), build_star()
    checks = []
    monkeypatch.setattr(gw, "check_hom", checks.append)
    monkeypatch.setattr(fg.FiniteGroup, "_check_group_axioms", checks.append)
    ds.apply_move(sub, ds.collapse_move("f"))
    subdivide_sl2z()
    ds.apply_move(star, ds.slide_move("e2", "e1"))
    assert checks == []


# -- isomorphism of graphs of groups -------------------------------------------

def _d4_amalgam(left: int, right: int):
    d4a, d4b = ds._dihedral(4), ds._dihedral(4)
    z2 = fg.build_cyclic(2, "c")
    e = Edge("e", z2, ("u", "w"),
             (GroupHom(z2, d4a, (0, left)), GroupHom(z2, d4b, (0, right))))
    return GraphOfGroups([("u", d4a), ("w", d4b)], [e], "u", ["e"])


def test_gog_isomorphism_sees_edge_subgroup_placement():
    center, refl, other_refl = 4, 1, 3
    assert ds.are_gog_isomorphic(_d4_amalgam(center, center),
                                 _d4_amalgam(center, center))
    # Central versus non-central edge image: no isomorphism can match them.
    assert not ds.are_gog_isomorphic(_d4_amalgam(center, center),
                                     _d4_amalgam(center, refl))
    # The two reflection classes are swapped by an outer automorphism.
    assert ds.are_gog_isomorphic(_d4_amalgam(refl, refl),
                                 _d4_amalgam(refl, other_refl))


def test_gog_isomorphism_ignores_labels_and_base():
    flipped = GraphOfGroups(
        [("p", SL2Z.vertices["vB"]), ("q", SL2Z.vertices["vA"])],
        [Edge("k", SL2Z.edges["e"].group, ("p", "q"),
              (SL2Z.edges["e"].inj[1], SL2Z.edges["e"].inj[0]))],
        "p", ["k"])
    assert ds.are_gog_isomorphic(SL2Z, flipped)
    assert not ds.are_gog_isomorphic(SL2Z, build_star())


# -- catalog and enumeration ---------------------------------------------------

def test_small_groups_catalog():
    # Canonical forms read every group through the catalog group
    # isomorphic to it, so the catalog must hold each group of order <= 12
    # exactly once: 24 pairwise non-isomorphic groups, as many of each
    # order as there are isomorphism types.
    groups = ds._catalog()
    assert len(groups) == 24 and list(groups) == ds.small_groups(12)
    counts = {}
    for g in groups:
        counts[g.order] = counts.get(g.order, 0) + 1
    assert [counts.get(n, 0) for n in range(1, 13)] == \
        [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5]
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            if g.order == h.order:
                assert fg.are_isomorphic(g, h) is None
    with pytest.raises(gw.GogError):
        ds.small_groups(13)


def test_small_groups_catalog_is_built_once():
    # Each call returns a new list of the same group objects, so the
    # tables a group caches are computed once per process.
    first, again = ds.small_groups(12), ds.small_groups(12)
    assert first is not again
    assert all(g is h for g, h in zip(first, again, strict=True))
    prefix = ds.small_groups(6)
    assert all(g is h for g, h in zip(prefix, first[:len(prefix)],
                                       strict=True))
    first.clear()
    assert ds.small_groups(12) == again


def test_enumerate_reduced_examples():
    z4, z6, z2 = (fg.build_cyclic(4, "a"), fg.build_cyclic(6, "b"),
                  fg.build_cyclic(2, "c"))
    found = ds.enumerate_reduced(2, 1, 12, vertex_groups=[z4, z6],
                                 edge_groups=[z2])
    assert len(found) == 1
    assert ds.are_gog_isomorphic(found[0], SL2Z)
    # Input order must not matter.
    swapped = ds.enumerate_reduced(2, 1, 12, vertex_groups=[z6, z4],
                                   edge_groups=[z2])
    assert len(swapped) == 1 and ds.are_gog_isomorphic(swapped[0], found[0])

    assert len(ds.enumerate_reduced(1, 0, 1)) == 1

    triv = fg.build_cyclic(1)
    pair = ds.enumerate_reduced(2, 1, 2,
                                vertex_groups=[fg.build_cyclic(2, "s"),
                                               fg.build_cyclic(2, "t")],
                                edge_groups=[triv])
    assert len(pair) == 1


def test_enumerate_reduced_unconstrained_small():
    # Order <= 3 and one edge: the free products 2*2, 2*3, 3*3 and nothing
    # else (any larger edge group fills an endpoint).
    out = ds.enumerate_reduced(2, 1, 3)
    assert len(out) == 3
    for i, a in enumerate(out):
        assert ds.is_reduced(a) and ds.is_minimal(a)
        for b in out[i + 1:]:
            assert not ds.are_gog_isomorphic(a, b)


def test_enumerate_caps():
    with pytest.raises(gw.GogError, match="capped"):
        ds.enumerate_reduced(4, 1, 12)
    with pytest.raises(gw.GogError, match="capped"):
        ds.enumerate_reduced(2, 1, 13)
    with pytest.raises(gw.GogError, match=r"^max_order is 8, capped at 7 "
                                          r"with edge_count 2 "
                                          r"\(allowed 1\.\.7\)$"):
        ds.enumerate_reduced(1, 2, 8)
    with pytest.raises(gw.GogError, match="capped at 7 with edge_count 3"):
        ds.enumerate_reduced(3, 3, 12, vertex_groups=[fg.build_cyclic(2)] * 3,
                             edge_groups=[fg.build_cyclic(1)] * 3)
    with pytest.raises(gw.GogError, match="one group per"):
        ds.enumerate_reduced(2, 1, 12, vertex_groups=[fg.build_cyclic(2)])
    z16, z2 = fg.build_cyclic(16), fg.build_cyclic(2)
    with pytest.raises(gw.GogError, match=r"^vertex_groups\[0\] has order "
                                          r"16, above max_order 4$"):
        ds.enumerate_reduced(2, 1, 4, vertex_groups=[z16, z16],
                             edge_groups=[z2])
    with pytest.raises(gw.GogError, match=r"^edge_groups\[1\] has order 8, "
                                          r"above max_order 6$"):
        ds.enumerate_reduced(2, 2, 6, edge_groups=[z2, fg.build_cyclic(8)])


# -- bounded expansion search ---------------------------------------------------

def _brute_force_depth_one(gog):
    classes = []
    for move in ds.expansion_moves(gog):
        new = ds.apply_move(gog, move)
        if not ds.is_non_redundant(new):
            continue
        if not any(ds.are_gog_isomorphic(new, old) for old in classes):
            classes.append(new)
    return classes


def test_nonredundant_expansions_depth_zero():
    out, _ = ds.nonredundant_expansions(SL2Z, 0)
    assert out == [SL2Z]


def test_nonredundant_expansions_sl2z_saturates():
    out, report = ds.nonredundant_expansions(SL2Z, 2)
    assert out == [SL2Z]
    assert report["frontier_all_redundant"]


def test_nonredundant_expansions_build_each_expansion_once(monkeypatch):
    built = {}
    apply_expansion = ds._apply_expansion

    def counting(gog, move):
        built[gog, move] = built.get((gog, move), 0) + 1
        return apply_expansion(gog, move)

    monkeypatch.setattr(ds, "_apply_expansion", counting)
    out, _ = ds.nonredundant_expansions(SL2Z, 2)
    assert out == [SL2Z]
    assert len(built) > 1
    assert set(built.values()) == {1}


def test_expansion_moves_are_every_legal_expansion():
    # Every (vertex, subgroup, subset of incident ends) that apply_move
    # accepts, the empty subset included, in expansion_moves' order.
    for gog in (SL2Z, build_star(), ROSE3, build_counterexample_gog()):
        want = []
        for w in sorted(gog.vertices):
            ends = [(t.edge, t.dir) for t in gog.incident(w)]
            for sub in fg.all_subgroups(gog.vertices[w]):
                for k in range(len(ends) + 1):
                    for moved in itertools.combinations(ends, k):
                        move = ds.expansion_move(w, sub.elements, moved)
                        try:
                            ds.apply_move(gog, move)
                        except gw.GogError:
                            continue
                        want.append(move)
        assert ds.expansion_moves(gog) == want


def test_expansions_build_no_move_without_a_moved_end(monkeypatch):
    # With no moved end the new vertex is a leaf whose edge has index 1:
    # such an expansion is never minimal, so it is not built.
    tried = []
    apply_expansion = ds._apply_expansion

    def recording(gog, move):
        tried.append(move)
        return apply_expansion(gog, move)

    monkeypatch.setattr(ds, "_apply_expansion", recording)
    ds.expansion_moves(build_counterexample_gog())
    assert tried and all(move.moved for move in tried)


def test_nonredundant_expansions_match_brute_force():
    for gog in (build_star(), ROSE3):
        oracle = _brute_force_depth_one(gog)
        got, _ = ds.nonredundant_expansions(gog, 1)
        assert got[0] is gog
        rest = got[1:]
        assert len(rest) == len(oracle)
        for g in oracle:
            assert any(ds.are_gog_isomorphic(g, h) for h in rest)


@pytest.mark.parametrize("cap, refused", [(5, False), (4, True)],
                         ids=["at-cap", "above-cap"])
def test_expansions_refuse_vertex_groups_above_the_order_cap(
        monkeypatch, cap, refused):
    # Z/5 alone has nothing to expand, so only the cap decides.
    monkeypatch.setattr(ds, "EXPANSION_ORDER_CAP", cap)
    point = GraphOfGroups([("v", fg.build_cyclic(5))], [], "v", [])
    if refused:
        with pytest.raises(gw.GogError, match="vertex 'v' has order 5, "
                           "above the expansion order cap 4"):
            ds.nonredundant_expansions(point, 1)
    else:
        assert ds.nonredundant_expansions(point, 1)[0] == [point]


def test_expansions_refuse_before_listing_subgroups(monkeypatch):
    listed = []
    monkeypatch.setattr(fg, "all_subgroups", listed.append)
    monkeypatch.setattr(ds, "EXPANSION_ORDER_CAP", 48)
    with pytest.raises(gw.GogError, match="vertex 'vA' has order 64"):
        ds.expansion_moves(build_counterexample_gog())
    assert listed == []


def test_expansion_search_graphs_compile_like_checked_ones(monkeypatch):
    # Every graph the search reaches, kept or not, and every graph it
    # returns.
    reached = []
    expansions = ds._expansions

    def recording(gog):
        for move, new in expansions(gog):
            reached.append(new)
            yield move, new
    monkeypatch.setattr(ds, "_expansions", recording)
    for name, depth in (("sl2z", 3), ("z2z3", 3), ("counterexample", 1)):
        reached.extend(ds.nonredundant_expansions(cli.load_group(name),
                                                  depth)[0])
    assert len(reached) > 3
    for gog in reached:
        assert_compiles_like_checked(gog)


def test_nonredundant_expansions_requires_reduced():
    with pytest.raises(gw.GogError, match="reduced"):
        ds.nonredundant_expansions(subdivide_sl2z(), 1)
    with pytest.raises(gw.GogError, match="capped"):
        ds.nonredundant_expansions(SL2Z, 9)
