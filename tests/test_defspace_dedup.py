"""The enumeration's and the expansion search's shortcuts against the
reference in `defspace_oracle`.

`enumerate_reduced` skips candidates with a collapsible edge before
listing them and keeps the first of each canonical form, building only
those.  `nonredundant_expansions` compares each new graph with every kept
one through `are_gog_isomorphic`, which tells graphs with different
invariant keys (`_iso_key`) apart without a search and reads
conjugations from cached tables.  Each shortcut is meant to be exact:
the outputs must equal those of `defspace_oracle`, which builds every
candidate and compares every pair element by element, and the invariant
key must agree on isomorphic graphs.
"""

import gc
import itertools
import random
import tracemalloc

import pytest

import defspace_oracle as oracle
import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.gogwords as gw
from fixtures import build_counterexample_gog
from test_defspace import ROSE3, SL2Z, build_star
from vfree.fingroup import FiniteGroup, GroupHom
from vfree.gogwords import Edge, GraphOfGroups

CATALOG_QUERIES = (
    [(1, 1, r) for r in range(1, 8)] + [(2, 1, r) for r in range(1, 8)]
    + [(2, 2, r) for r in range(1, 4)] + [(3, 2, r) for r in range(1, 4)]
    + [(1, 2, r) for r in range(1, 4)] + [(3, 3, r) for r in range(1, 3)])
# Two-vertex amalgams at max order 12, as (catalog index of A, catalog
# index of B, order of the cyclic edge group).
AMALGAMS = ((3, 6, 2), (7, 13, 2), (13, 17, 2), (20, 20, 2), (22, 22, 2),
            (7, 22, 3), (19, 22, 3), (12, 12, 1))


def as_json(graphs):
    return [gw.gog_to_json(g) for g in graphs]


@pytest.mark.parametrize("query", CATALOG_QUERIES, ids=str)
def test_enumerate_reduced_matches_oracle(query):
    assert as_json(ds.enumerate_reduced(*query)) == \
        as_json(oracle.enumerate_reduced(*query))


@pytest.mark.parametrize("amalgam", AMALGAMS, ids=str)
def test_pinned_amalgams_match_oracle(amalgam):
    a, b, c = amalgam
    catalog = ds.small_groups(12)
    pins = {"vertex_groups": [catalog[a], catalog[b]],
            "edge_groups": [fg.build_cyclic(c)]}
    assert as_json(ds.enumerate_reduced(2, 1, 12, **pins)) == \
        as_json(oracle.enumerate_reduced(2, 1, 12, **pins))


# -- facts kept on the groups -------------------------------------------------


def test_a_repeated_query_searches_no_group_again(monkeypatch):
    calls = []

    def counted(name, search):
        def call(*args):
            calls.append(name)
            return search(*args)
        return call

    ds.enumerate_reduced(2, 1, 6)
    for name in ("all_monomorphisms", "isomorphisms_iter"):
        monkeypatch.setattr(fg, name, counted(name, getattr(fg, name)))
    ds.enumerate_reduced(2, 1, 6)
    assert calls == []
    fresh = fg.build_cyclic(4)
    ds.enumerate_reduced(1, 1, 4, vertex_groups=[fresh], edge_groups=[fresh])
    assert calls


class StoreLog(dict):
    """A group's _facts that logs (group, key) for each coset table
    stored in it: coset_data stores one exactly when it computes one."""

    def __init__(self, grp, log):
        super().__init__((key, fact) for key, fact in grp._facts.items()
                         if not isinstance(key, frozenset))
        self.grp, self.log = grp, log

    def __setitem__(self, key, fact):
        if isinstance(key, frozenset):
            self.log.append((self.grp, key))
        super().__setitem__(key, fact)


def test_a_repeated_query_builds_its_graphs_from_kept_tables(monkeypatch):
    # A kept graph is built from checked parts and reads its coset tables
    # from its groups.  With the catalog groups' tables emptied, (2, 1, 7)
    # computes each coset table once and checks no injection; an
    # identical second query computes none.
    cosets, checks = [], []
    for grp in ds.small_groups(7):
        monkeypatch.setattr(grp, "_facts", StoreLog(grp, cosets))
    check_hom = gw.check_hom
    monkeypatch.setattr(gw, "check_hom",
                        lambda hom: checks.append(hom) or check_hom(hom))
    assert ds.enumerate_reduced(2, 1, 7)
    assert cosets and checks == []
    assert len(set(cosets)) == len(cosets)
    cosets.clear()
    assert ds.enumerate_reduced(2, 1, 7)
    assert cosets == [] and checks == []


def test_outputs_do_not_depend_on_earlier_queries():
    # The facts of one query stay on its groups for the next, so each
    # query runs forward, then in reverse, and then on renumbered copies
    # of the pinned groups, which are read through isomorphisms drawn to
    # the catalog groups; every run must give the oracle's graphs.  The
    # last query joins two copies of D3 over Z/2 and Z/3, so renumbered
    # vertex groups take facts from two edge groups each.
    rng = random.Random(18)
    catalog = ds.small_groups(12)
    queries = [(query, {}) for query in CATALOG_QUERIES]
    queries += [((2, 1, 12), {"vertex_groups": [catalog[a], catalog[b]],
                              "edge_groups": [fg.build_cyclic(c)]})
                for a, b, c in AMALGAMS]
    queries.append(((2, 2, 6), {"vertex_groups": [catalog[7], catalog[7]],
                                "edge_groups": [fg.build_cyclic(2),
                                                fg.build_cyclic(3)]}))
    want = [as_json(oracle.enumerate_reduced(*query, **pins))
            for query, pins in queries]
    for k in [*range(len(queries)), *reversed(range(len(queries)))]:
        query, pins = queries[k]
        assert as_json(ds.enumerate_reduced(*query, **pins)) == want[k]
    for query, pins in queries[len(CATALOG_QUERIES):]:
        pins = {name: [permuted_group(grp, rng)[0] for grp in groups]
                for name, groups in pins.items()}
        assert as_json(ds.enumerate_reduced(*query, **pins)) == \
            as_json(oracle.enumerate_reduced(*query, **pins))


def test_dropped_groups_take_their_facts_with_them():
    # The facts of a caller's groups, coset tables and checked injections
    # among them, live on those groups, so 200 rounds of queries on fresh
    # groups must leave nothing behind.  Each round pins fresh vertex
    # groups over a fresh edge group, as `verify sl2z` does; catalog
    # vertex groups over a fresh edge group; fresh vertex groups over
    # catalog edge groups; and a loop at the catalog's D6 over a copy of
    # D3 renumbered anew each round, which facts keyed by the contents of
    # its table would pile up.
    catalog = ds.small_groups(12)
    rng = random.Random(23)

    def fresh_vertex_groups():
        return [fg.build_cyclic(4, "a"), fg.build_cyclic(6, "b")]

    def query(vertex_groups):
        return ds.enumerate_reduced(2, 1, 12, vertex_groups=vertex_groups,
                                    edge_groups=[fg.build_cyclic(2, "c")])

    def queries():
        query(fresh_vertex_groups())
        query([catalog[3], catalog[6]])
        assert ds.enumerate_reduced(2, 1, 6,
                                    vertex_groups=fresh_vertex_groups())
        loop_group = permuted_group(catalog[7], rng)[0]
        assert ds.enumerate_reduced(1, 1, 12, vertex_groups=[catalog[21]],
                                    edge_groups=[loop_group])

    queries()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(200):
            queries()
        gc.collect()
        grown = sum(stat.size_diff for stat in
                    tracemalloc.take_snapshot().compare_to(before, "filename"))
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


@pytest.mark.parametrize("seed", ["sl2z", "star", "rose3"])
def test_nonredundant_expansions_match_oracle(seed):
    gog = {"sl2z": SL2Z, "star": build_star(), "rose3": ROSE3}[seed]
    got, report = ds.nonredundant_expansions(gog, 2)
    want, explored = oracle.nonredundant_expansions(gog, 2)
    assert as_json(got) == as_json(want)
    assert report["explored"] == explored


# -- soundness of the shortcuts -------------------------------------------------


def permuted_group(grp: FiniteGroup, rng) -> tuple[FiniteGroup, list[int]]:
    """A copy of grp with its elements renumbered by a random permutation
    pi, as a new object, and pi."""
    pi = list(range(grp.order))
    rng.shuffle(pi)
    table = [[0] * grp.order for _ in range(grp.order)]
    for i, row in enumerate(grp.table):
        for j, x in enumerate(row):
            table[pi[i]][pi[j]] = pi[x]
    gens = {name: pi[idx] for name, idx in grp.generators.items()}
    return FiniteGroup(table, gens), pi


def isomorphic_copy(gog: GraphOfGroups, rng, new_groups: bool
                    ) -> GraphOfGroups:
    """gog with vertices and edges renamed, edge ends swapped at random,
    each vertex group moved by a random automorphism (and, with
    new_groups, onto a renumbered copy), each edge group by a random
    automorphism, and each injection followed by a random conjugation."""
    auts = {}

    def random_aut(grp):
        if grp not in auts:
            auts[grp] = list(fg.isomorphisms_iter(grp, grp))
        return rng.choice(auts[grp]).mapping

    vids = sorted(gog.vertices)
    names = [f"w{k}" for k in range(len(vids))]
    rng.shuffle(names)
    rename = dict(zip(vids, names))
    groups, alpha = {}, {}
    for v in vids:
        grp, aut = gog.vertices[v], random_aut(gog.vertices[v])
        if new_groups:
            grp, pi = permuted_group(grp, rng)
            aut = [pi[y] for y in aut]
        groups[v], alpha[v] = grp, aut

    eids = sorted(gog.edges)
    enames = [f"f{k}" for k in range(len(eids))]
    rng.shuffle(enames)
    erename = dict(zip(eids, enames))
    edges = []
    for eid in eids:
        e = gog.edges[eid]
        beta = random_aut(e.group)
        injs = []
        for v, inj in zip(e.ends, e.inj):
            tgt = groups[v]
            g = rng.randrange(tgt.order)
            injs.append(GroupHom(e.group, tgt, tuple(
                tgt.conj(g, alpha[v][inj(beta[c])])
                for c in range(e.group.order))))
        ends = [rename[v] for v in e.ends]
        if rng.random() < 0.5:
            ends.reverse()
            injs.reverse()
        edges.append(Edge(erename[eid], e.group, tuple(ends), tuple(injs)))
    vertices = [(rename[v], groups[v]) for v in vids]
    rng.shuffle(vertices)
    return GraphOfGroups(vertices, edges, rng.choice(names),
                         [erename[e] for e in gog.spanning_tree])


@pytest.mark.parametrize("query", [(2, 1, 6), (1, 2, 3), (3, 2, 2)], ids=str)
def test_invariant_key_agrees_on_isomorphic_copies(query):
    rng = random.Random(sum(query))
    for _, _, _, gog in oracle.candidates(*query):
        for new_groups in (False, True):
            copy = isomorphic_copy(gog, rng, new_groups)
            assert ds._iso_key(copy) == ds._iso_key(gog)
            assert ds.are_gog_isomorphic(gog, copy)
            assert ds.are_gog_isomorphic(copy, gog)


def test_different_keys_are_never_isomorphic():
    graphs = [gog for _, _, _, gog in oracle.candidates(2, 1, 5)]
    keys = [ds._iso_key(g) for g in graphs]
    pairs = [(i, j) for i, j in itertools.combinations(range(len(graphs)), 2)
             if keys[i] != keys[j]]
    assert pairs
    for i, j in pairs:
        assert not oracle.are_gog_isomorphic(graphs[i], graphs[j])


def test_different_keys_are_told_apart_without_a_search(monkeypatch):
    graphs = [gog for _, _, _, gog in oracle.candidates(2, 1, 5)]
    pairs = [(g, h) for g, h in itertools.combinations(graphs, 2)
             if ds._iso_key(g) != ds._iso_key(h)]
    searches = []
    monkeypatch.setattr(ds, "_match", lambda *args: searches.append(args))
    assert pairs
    for g, h in pairs:
        assert not ds.are_gog_isomorphic(g, h)
    assert searches == []


def test_counterexample_expansions_are_pinned():
    # Depth 1 from the counterexample keeps 5 graphs up to isomorphism,
    # none of them non-redundant: the output is the seed alone.
    gog = build_counterexample_gog()
    got, report = ds.nonredundant_expansions(gog, 1)
    assert as_json(got) == [gw.gog_to_json(gog)]
    assert report == {"explored": 5, "frontier_all_redundant": True}


@pytest.mark.parametrize("query", [(2, 1, 6), (3, 2, 2)], ids=str)
def test_collapsible_precheck_skips_exactly_the_unreduced(query):
    skipped = kept = 0
    for shape, vgroups, egroups, gog in oracle.candidates(*query):
        skip = oracle.has_collapsible_edge(shape, vgroups, egroups)
        assert skip == (not (ds.is_reduced(gog) and ds.is_minimal(gog)))
        skipped += skip
        kept += not skip
    assert skipped and kept


def test_invariant_key_sees_conjugacy_class_sizes():
    # Z/4 *_{Z/2} D4 with Z/2 sent to the centre of D4 or to a reflection:
    # every image has order 2, so only the class sizes (1 or 2) in the key
    # tell the two non-isomorphic amalgams apart.
    d4 = ds._dihedral(4)
    z4, z2 = fg.build_cyclic(4, "a"), fg.build_cyclic(2, "c")
    involutions = [x for x in d4.elements() if d4.element_order(x) == 2]
    central = next(x for x in involutions
                   if all(d4.mul(x, g) == d4.mul(g, x) for g in d4.elements()))
    reflection = next(x for x in involutions
                      if any(d4.mul(x, g) != d4.mul(g, x)
                             for g in d4.elements()))
    into_z4 = GroupHom(z2, z4, (0, 2))
    graphs = [gw.build_amalgam(z4, d4, z2, into_z4,
                               GroupHom(z2, d4, (d4.identity, x)))
              for x in (central, reflection)]
    assert ds._iso_key(graphs[0]) != ds._iso_key(graphs[1])
    assert not oracle.are_gog_isomorphic(*graphs)
