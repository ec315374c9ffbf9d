"""Group choices visited once up to relabeling, against the global
selection in `defspace_oracle`.

`enumerate_reduced` skips a group choice (shape, vertex groups, edge
groups) when a relabeling of its vertices, up to isomorphism of each
group, was visited before, and it compares canonical forms only among
the candidates of one choice.  `defspace_oracle.first_of_each_form`
lists every choice, sorts all their candidates and keeps the first of
each form across all of them.  Both must keep the same graphs in the
same order, also when pinned groups are distinct objects of one class,
which only class ids, not group identities, tell to be orbit-mates.
"""

import math
import random

import pytest

import defspace_oracle as oracle
import vfree.defspace as ds
import vfree.fingroup as fg
from test_defspace_dedup import (AMALGAMS, CATALOG_QUERIES, as_json,
                                 permuted_group)

CATALOG = ds.small_groups(12)
D3, Z6 = CATALOG[7], CATALOG[6]


@pytest.mark.parametrize("query", CATALOG_QUERIES + [(2, 3, 3), (3, 3, 3)],
                         ids=str)
def test_choice_orbits_keep_the_global_first_of_each_form(query):
    assert as_json(ds.enumerate_reduced(*query)) == \
        as_json(oracle.first_of_each_form(*query))


@pytest.mark.parametrize("amalgam", AMALGAMS, ids=str)
def test_pinned_amalgams_keep_the_global_first_of_each_form(amalgam):
    a, b, c = amalgam
    pins = {"vertex_groups": [CATALOG[a], CATALOG[b]],
            "edge_groups": [fg.build_cyclic(c)]}
    assert as_json(ds.enumerate_reduced(2, 1, 12, **pins)) == \
        as_json(oracle.first_of_each_form(2, 1, 12, **pins))


def isomorphic_pins():
    """Pinned queries on distinct but isomorphic group objects, with
    their class counts: D3 and a renumbered copy over Z/2, in both
    orders; the two joined by a loop and a bridge over Z/2 and Z/3; and
    a path through them and Z/6 over Z/2 and a renumbered Z/2.  In the
    last two, choices that put the loop on D3 or on its copy, or either
    copy in the middle, are orbit-mates only through the class ids."""
    rng = random.Random(24)
    copy = permuted_group(D3, rng)[0]
    z2, z3 = fg.build_cyclic(2), fg.build_cyclic(3)
    z2_copy = permuted_group(z2, rng)[0]
    return {"d3-copy": ((2, 1, 6), [D3, copy], [z2], 1),
            "copy-d3": ((2, 1, 6), [copy, D3], [z2], 1),
            "d3-copy-loop": ((2, 2, 6), [D3, copy], [z2, z3], 3),
            "d3-copy-z6": ((3, 2, 6), [D3, copy, Z6], [z2, z2_copy], 2)}


@pytest.mark.parametrize("case", list(isomorphic_pins()))
def test_isomorphic_pinned_groups_keep_the_global_first_of_each_form(case):
    query, vertex_groups, edge_groups, classes = isomorphic_pins()[case]
    pins = {"vertex_groups": vertex_groups, "edge_groups": edge_groups}
    got = as_json(ds.enumerate_reduced(*query, **pins))
    assert len(got) == classes
    assert got == as_json(oracle.first_of_each_form(*query, **pins))


def counted_forms(monkeypatch):
    """{choice's group ids: [shape, vertex groups, edge groups, forms
    read]}, filled as _canonical_form is called."""
    calls = {}
    form = ds._canonical_form

    def counted(shape, vgroups, egroups, monos):
        key = (shape, tuple(map(id, vgroups)), tuple(map(id, egroups)))
        calls.setdefault(key, [shape, vgroups, egroups, 0])[3] += 1
        return form(shape, vgroups, egroups, monos)

    monkeypatch.setattr(ds, "_canonical_form", counted)
    return calls


def test_a_choice_with_one_candidate_reads_no_form(monkeypatch):
    # Each free product Z/a * Z/b over the trivial group is a choice
    # with one candidate; the global dedup read a form for each.
    calls = counted_forms(monkeypatch)
    assert len(ds.enumerate_reduced(2, 1, 3)) == 3
    assert calls == {}
    for query in [(2, 1, 7), (1, 2, 3), (3, 2, 3), (3, 3, 3)]:
        ds.enumerate_reduced(*query)
    assert calls
    for shape, vgroups, egroups, forms in calls.values():
        listed = math.prod(len(ds._orbit_reps(c, vgroups[i], 0))
                           * len(ds._orbit_reps(c, vgroups[j], 1))
                           for (i, j), c in zip(shape, egroups))
        assert forms == listed > 1


def test_a_repeated_query_reads_forms_only_inside_choices(monkeypatch):
    # The global dedup read one form per candidate: 106 for (2, 1, 7).
    # Visiting each choice once up to relabeling, and reading no form for
    # a choice with one candidate, leaves 20.
    ds.enumerate_reduced(2, 1, 7)
    calls = counted_forms(monkeypatch)
    assert len(ds.enumerate_reduced(2, 1, 7)) == 49
    assert sum(forms for *_, forms in calls.values()) == 20
