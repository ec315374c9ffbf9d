"""Canonical forms of candidates against the reference isomorphism test
in `defspace_oracle`.

`enumerate_reduced` keeps the first candidate of each `_canonical_form`
instead of comparing graphs.  That is exact only if the form is a
complete invariant: isomorphic graphs share it and graphs that share it
are isomorphic.  Both directions are checked here on the candidates the
oracle builds, reduced or not, with one edge and with several.  On
one-edge candidates the form must also split them into the classes of
`defspace_oracle.OneEdgeForms`, the bridge-and-loop form it replaced.
"""

import random

import pytest

import defspace_oracle as oracle
import vfree.defspace as ds
import vfree.fingroup as fg
from test_defspace_dedup import as_json, isomorphic_copy, permuted_group

CATALOG = ds.small_groups(12)
# Pinned graphs, as (catalog indices of the vertex groups, edge groups).
# The first three are two-vertex amalgams with more than one class.  D4
# over Z/2, twice the same object: the image is central or not at each
# end.  D4 and D6 over the Klein group, at one end or both: the
# automorphisms fixing an image induce only the swap fixing its central
# element, so a class is whether the two central elements pull back to
# the same element of C, and only an automorphism of C (the γ of the
# form) shows two such candidates equal.  The next two put two loops,
# or two parallel edges, on non-abelian groups, where the conjugation
# of each end at a vertex read before counts: D4 with two loops over
# Z/2, and two copies of D3 joined over Z/2 and over Z/3.  The last is
# a path Z/2 - D4 - D4 over Z/2 and the Klein group.
PINNED = {"d4-d4-z2": ((12, 12), ("z2",)), "d4-d4-v4": ((12, 12), ("v4",)),
          "d6-d4-v4": ((21, 12), ("v4",)),
          "d4-z2-z2": ((12,), ("z2", "z2")),
          "d3-d3-z2-z3": ((7, 7), ("z2", "z3")),
          "z2-d4-d4": ((1, 12, 12), ("z2", "v4"))}


def edge_group(name):
    return {"v4": fg.build_boolean_vectors(2), "z2": fg.build_cyclic(2),
            "z3": fg.build_cyclic(3)}[name]


def pins(name):
    vertices, edges = PINNED[name]
    return {"vertex_groups": [CATALOG[k] for k in vertices],
            "edge_groups": [edge_group(c) for c in edges]}


def candidates(case):
    if case in PINNED:
        vertices, edges = PINNED[case]
        found = oracle.candidates(len(vertices), len(edges), 12, **pins(case))
        return [gog for _, _, _, gog in found]
    return [gog for _, _, _, gog in oracle.candidates(*case)]


def raw(gog):
    """A built graph as the (shape, vertex groups, edge groups,
    injections) that _canonical_form reads, edges in id order."""
    vids = sorted(gog.vertices)
    edges = [gog.edges[eid] for eid in sorted(gog.edges)]
    shape = tuple(tuple(vids.index(v) for v in e.ends) for e in edges)
    return (shape, [gog.vertices[v] for v in vids],
            [e.group for e in edges], [e.inj for e in edges])


ONE_EDGE = [(2, 1, 5), (1, 1, 5), (1, 1, 6), "d4-d4-z2", "d4-d4-v4",
            "d6-d4-v4"]
CASES = ONE_EDGE + [(1, 2, 3), (2, 2, 3), (3, 2, 3), (1, 3, 2), (3, 3, 2),
                    "d4-z2-z2", "d3-d3-z2-z3"]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_isomorphic_copies_share_the_form(case):
    # With new_groups the copy's groups are renumbered new objects, so the
    # form reads them through isomorphisms drawn to the catalog groups.
    rng = random.Random(str(case))
    forms = ds._canonical_form
    graphs = candidates(case)
    for gog in graphs:
        for new_groups in (False, True):
            copy = isomorphic_copy(gog, rng, new_groups)
            assert forms(*raw(copy)) == forms(*raw(gog))


@pytest.mark.parametrize("case", CASES, ids=str)
def test_forms_decide_isomorphism_as_the_oracle_does(case):
    # Every candidate is isomorphic to the first candidate of its form, and
    # the firsts of two forms never are; by transitivity, two candidates
    # share a form exactly when the oracle finds them isomorphic.
    forms = ds._canonical_form
    first = {}
    for gog in candidates(case):
        rep = first.setdefault(forms(*raw(gog)), gog)
        assert oracle.are_gog_isomorphic(gog, rep)
    reps = list(first.values())
    assert len(reps) > 1
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not oracle.are_gog_isomorphic(g, h)


def test_every_gamma_reaching_the_least_read_is_kept():
    # When the Klein edge is read from the D4 read before, conjugation
    # there carries one γ reaching the least read to others, and the far
    # D4 need not realize the automorphism of the edge group between
    # them; the form must follow each.  A sample of the 4,320 candidates.
    rng = random.Random(5)
    forms, first = ds._canonical_form, {}
    for gog in rng.sample(candidates("z2-d4-d4"), 150):
        copy = isomorphic_copy(gog, rng, True)
        assert forms(*raw(copy)) == forms(*raw(gog))
        rep = first.setdefault(forms(*raw(gog)), gog)
        assert oracle.are_gog_isomorphic(gog, rep)
    reps = list(first.values())
    assert len(reps) > 1
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not oracle.are_gog_isomorphic(g, h)


@pytest.mark.parametrize("case", ONE_EDGE, ids=str)
def test_one_edge_classes_match_the_bridge_and_loop_forms(case):
    # The old form (a function of the class) and the new one must pair up
    # one to one on every candidate.
    old, new = oracle.OneEdgeForms(), ds._canonical_form
    pairs = {(old(*raw(gog)), new(*raw(gog))) for gog in candidates(case)}
    assert len(pairs) > 1
    assert len({a for a, _ in pairs}) == len(pairs)
    assert len({b for _, b in pairs}) == len(pairs)


@pytest.mark.parametrize("case", ["d4-d4-z2", "d4-d4-v4"])
def test_pinned_amalgams_match_oracle(case):
    assert as_json(ds.enumerate_reduced(2, 1, 12, **pins(case))) == \
        as_json(oracle.enumerate_reduced(2, 1, 12, **pins(case)))


@pytest.mark.parametrize("vertex, edge", [(4, 4), (3, 3), (12, 4)],
                         ids=["v4-v4", "z4-z4", "d4-v4"])
def test_loop_on_a_renumbered_edge_group_matches_oracle(vertex, edge):
    # The edge group is a renumbered copy of a catalog group, a distinct
    # object.  For v4-v4 and z4-z4 it is isomorphic to the vertex group, so
    # its class is the vertex group's and its injections are read through
    # the drawn isomorphism.
    rng = random.Random(vertex * 100 + edge)
    pins = {"vertex_groups": [CATALOG[vertex]],
            "edge_groups": [permuted_group(CATALOG[edge], rng)[0]]}
    got = ds.enumerate_reduced(1, 1, 12, **pins)
    assert len(got) > 1
    assert as_json(got) == as_json(oracle.enumerate_reduced(1, 1, 12, **pins))
