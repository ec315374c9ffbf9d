"""Canonical forms of one-edge candidates against the reference
isomorphism test in `defspace_oracle`.

With at most one edge, `enumerate_reduced` keeps the first candidate of
each `_OneEdgeForms` form instead of comparing graphs.  That is exact
only if the form is a complete invariant: isomorphic graphs share it and
graphs that share it are isomorphic.  Both directions are checked here
on every candidate the oracle builds, reduced or not.
"""

import random

import pytest

import defspace_oracle as oracle
import vfree.defspace as ds
import vfree.fingroup as fg
from test_defspace_dedup import as_json, isomorphic_copy, permuted_group

CATALOG = ds.small_groups(12)
# (catalog index of A, catalog index of B, edge group C) of two-vertex
# amalgams with more than one class.  D4 over Z/2, twice the same object:
# the image is central or not at each end.  D4 and D6 over the Klein
# group, at one end or both: the automorphisms fixing an image induce
# only the swap fixing its central element, so a class is whether the
# two central elements pull back to the same element of C, and only an
# automorphism of C (the γ of the form) shows two such candidates equal.
AMALGAMS = {"d4-d4-z2": (12, 12, "z2"), "d4-d4-v4": (12, 12, "v4"),
            "d6-d4-v4": (21, 12, "v4")}


def edge_group(name):
    return {"v4": fg.build_boolean_vectors(2), "z2": fg.build_cyclic(2)}[name]


def amalgam_pins(name):
    a, b, c = AMALGAMS[name]
    return {"vertex_groups": [CATALOG[a], CATALOG[b]],
            "edge_groups": [edge_group(c)]}


def one_edge_candidates(case):
    if case in AMALGAMS:
        return [gog for _, _, _, gog
                in oracle.candidates(2, 1, 12, **amalgam_pins(case))]
    return [gog for _, _, _, gog in oracle.candidates(*case)]


def raw(gog):
    """A built graph with one edge as the (shape, vertex groups, edge
    groups, injections) that _OneEdgeForms reads."""
    vids = sorted(gog.vertices)
    (e,) = gog.edges.values()
    shape = (tuple(vids.index(v) for v in e.ends),)
    return shape, [gog.vertices[v] for v in vids], [e.group], [e.inj]


CASES = [(2, 1, 5), (1, 1, 5), *AMALGAMS]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_isomorphic_copies_share_the_form(case):
    # With new_groups the copy's groups are renumbered new objects, so the
    # form reads them through the isomorphism drawn to the originals.
    rng = random.Random(str(case))
    forms = ds._OneEdgeForms()
    graphs = one_edge_candidates(case)
    for gog in graphs:
        for new_groups in (False, True):
            copy = isomorphic_copy(gog, rng, new_groups)
            assert forms(*raw(copy)) == forms(*raw(gog))


@pytest.mark.parametrize("case", CASES, ids=str)
def test_forms_decide_isomorphism_as_the_oracle_does(case):
    # Every candidate is isomorphic to the first candidate of its form, and
    # the firsts of two forms never are; by transitivity, two candidates
    # share a form exactly when the oracle finds them isomorphic.
    forms = ds._OneEdgeForms()
    first = {}
    for gog in one_edge_candidates(case):
        rep = first.setdefault(forms(*raw(gog)), gog)
        assert oracle.are_gog_isomorphic(gog, rep)
    reps = list(first.values())
    assert len(reps) > 1
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not oracle.are_gog_isomorphic(g, h)


@pytest.mark.parametrize("case", ["d4-d4-z2", "d4-d4-v4"])
def test_pinned_amalgams_match_oracle(case):
    pins = amalgam_pins(case)
    assert as_json(ds.enumerate_reduced(2, 1, 12, **pins)) == \
        as_json(oracle.enumerate_reduced(2, 1, 12, **pins))


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
