"""Group choices listed on canonical shapes, against the listing in
`defspace_oracle`.

`enumerate_reduced` walks only the least relabeling of each connected
shape, gives an edge only groups of order below both of its ends (a
loop's up to its vertex's), and skips a choice when an automorphism of
its shape carries it onto one visited before.
`defspace_oracle.group_choices` walks every connected shape and every
edge group up to the order of both ends, drops collapsible choices, and
skips a choice when any relabeling carries it onto one visited before.
Both must visit the same choices, on the same group objects, in the same
order.  Pinned edge groups above an end's order have no monomorphism
into it; the oracle lists such choices and the package does not, so they
are left out of the comparison.
"""

import itertools
import random

import pytest

import defspace_oracle as oracle
import vfree.defspace as ds
from test_defspace_dedup import permuted_group

CATALOG = ds.small_groups(12)
Z1, Z2, Z3, Z4, V4, Z6, D3 = (CATALOG[k] for k in (0, 1, 2, 3, 4, 6, 7))


def grid():
    for p, q in itertools.product(range(1, 4), range(4)):
        top = ds.ENUM_MULTI_EDGE_ORDER_CAP if q >= 2 else 6
        for r in range(1, top + 1):
            yield p, q, r


def ids(choices):
    """(shape, vertex group ids, edge group ids) of each choice."""
    return [(shape, tuple(map(id, vgroups)), tuple(map(id, egroups)))
            for shape, vgroups, egroups in choices]


def fits(choice):
    """Has every edge group an order at most that of both its ends?"""
    shape, vgroups, egroups = choice
    return all(c.order <= min(vgroups[i].order, vgroups[j].order)
               for (i, j), c in zip(shape, egroups))


def listed(p, q, r, vertex_groups=None, edge_groups=None):
    catalog = ds.small_groups(r) if None in (vertex_groups, edge_groups) \
        else []
    return ids(ds._group_choices(p, q, catalog, vertex_groups, edge_groups))


def listed_by_oracle(p, q, r, vertex_groups=None, edge_groups=None):
    return ids(filter(fits, oracle.group_choices(p, q, r, vertex_groups,
                                                 edge_groups)))


@pytest.mark.parametrize("query", list(grid()), ids=str)
def test_catalog_choices_match_the_relabeling_listing(query):
    assert listed(*query) == listed_by_oracle(*query)


def pinned_queries():
    """Pinned queries, each with two distinct isomorphic groups among its
    vertex or edge groups (renumbered copies), some with one group object
    pinned twice, and some with an edge group above an end's order."""
    rng = random.Random(26)
    d3, z2, z3 = (permuted_group(g, rng)[0] for g in (D3, Z2, Z3))
    return {
        "d3-copy-bridge": ((2, 1, 6), [D3, d3], [Z2]),
        "d3-copy-loop": ((2, 2, 6), [D3, d3], [Z2, Z3]),
        "d3-copy-z6-path": ((3, 2, 6), [D3, d3, Z6], [Z2, z2]),
        "z2-copies-on-z4-z4": ((2, 2, 4), [Z4, Z4], [Z2, z2]),
        "three-edges": ((2, 3, 6), [Z6, D3], [Z2, z2, Z3]),
        "triangle": ((3, 3, 6), [d3, Z6, D3], [z3, Z2, z2]),
        "edge-above-an-end": ((2, 2, 6), [Z2, d3], [Z3, Z1]),
        "catalog-edges": ((3, 2, 6), [D3, d3, V4], None),
        "catalog-vertices": ((2, 2, 4), None, [Z2, z2]),
        "one-vertex": ((1, 3, 6), [d3], [z2, Z2, z3]),
    }


@pytest.mark.parametrize("case", list(pinned_queries()))
def test_pinned_choices_match_the_relabeling_listing(case):
    query, vertex_groups, edge_groups = pinned_queries()[case]
    got = listed(*query, vertex_groups, edge_groups)
    assert got
    assert got == listed_by_oracle(*query, vertex_groups, edge_groups)


def shape_class(shape, p):
    """Every relabeling of a shape, as sorted (min, max) ends."""
    return frozenset(tuple(sorted(tuple(sorted((new[i], new[j])))
                                  for i, j in shape))
                     for new in itertools.permutations(range(p)))


@pytest.mark.parametrize("p,q", list(itertools.product(range(1, 4),
                                                      range(4))), ids=str)
def test_canonical_shapes_hold_one_least_shape_per_class(p, q):
    canonical = ds._canonical_shapes(p, q)
    classes = {shape_class(shape, p) for shape in oracle.connected_shapes(p, q)}
    assert len(canonical) == len(classes)
    assert {shape_class(shape, p) for shape, _ in canonical} == classes
    for shape, automorphisms in canonical:
        assert shape == min(shape_class(shape, p))
        fixing = [new for new in itertools.permutations(range(p))
                  if tuple(sorted(tuple(sorted((new[i], new[j])))
                                  for i, j in shape)) == shape]
        assert sorted(old for _, old in automorphisms) == sorted(
            tuple(sorted(range(p), key=new.__getitem__)) for new in fixing)
        for ends, old in automorphisms:
            new = [old.index(v) for v in range(p)]
            assert ends == tuple(tuple(sorted((new[i], new[j])))
                                 for i, j in shape)


def test_no_collapsible_choice_is_listed():
    for query in [(2, 1, 6), (3, 2, 4), (2, 3, 4)]:
        choices = list(ds._group_choices(*query[:2], ds.small_groups(query[2]),
                                         None, None))
        assert choices
        assert not any(oracle.has_collapsible_edge(*choice)
                       for choice in choices)
