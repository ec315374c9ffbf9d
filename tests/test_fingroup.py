"""Tables, homs, subgroups; frozen values come from independent oracles.

The permutation-closure oracle below is deliberately separate from the
library code: it composes raw tuples until stable.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from fixtures import build_counterexample_gog, build_z2_z3, relabelled
from test_defspace_dedup import permuted_group
from vfree import defspace as ds
from vfree import fingroup as fg
from vfree import gogwords as gw


# -- independent oracles ----------------------------------------------------

def perm_compose(p, q):
    """p∘q, q applied first."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_closure_oracle(gens):
    degree = len(gens[0])
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (perm_compose(g, x), perm_compose(x, g)):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return seen


def swap_basis(*pairs, k=4):
    """Permutation of (Z/2)^k bitmasks swapping the given basis pairs."""
    m = list(range(k))
    for a, b in pairs:
        m[a - 1], m[b - 1] = m[b - 1], m[a - 1]
    out = []
    for v in range(1 << k):
        w = 0
        for j in range(k):
            if v >> j & 1:
                w |= 1 << m[j]
        out.append(w)
    return tuple(out)


def cycle3_basis(a, b, c, k=4):
    m = list(range(k))
    m[a - 1], m[b - 1], m[c - 1] = b - 1, c - 1, a - 1
    out = []
    for v in range(1 << k):
        w = 0
        for j in range(k):
            if v >> j & 1:
                w |= 1 << m[j]
        out.append(w)
    return tuple(out)


FX = swap_basis((1, 2))          # (e1 e2)
FY = swap_basis((3, 4))          # (e3 e4)
HZ = cycle3_basis(1, 2, 3)       # (e1 e2 e3)
PSI_C = swap_basis((1, 3), (2, 4))  # (e1 e3)(e2 e4)


# -- cyclic / boolean basics -------------------------------------------------

def test_cyclic_table():
    g = fg.build_cyclic(6, "b")
    assert g.order == 6
    assert g.identity == 0
    assert g.element_order(g.generator("b")) == 6
    assert g.mul(4, 5) == 3
    assert g.inv(1) == 5
    assert g.label(3) == "b^3"


def test_power_reduces_the_exponent_modulo_the_order():
    g = fg.build_cyclic(4, "a")
    a = g.generator("a")
    assert g.power(a, 10**12 + 1) == a
    assert g.power(a, -(10**12 + 1)) == g.inv(a)
    assert g.power(a, 10**12) == g.identity


def test_evaluate_word_rejects_bare_caret():
    g = fg.build_cyclic(4, "a")
    with pytest.raises(fg.GroupError, match=r"malformed exponent in 'a\^'"):
        fg.evaluate_word(g, "a^")
    assert fg.evaluate_word(g, "a^3") == g.power(g.generator("a"), 3)


def test_boolean_vectors_xor():
    c = fg.build_boolean_vectors(4)
    assert c.order == 16
    assert c.mul(0b0101, 0b0011) == 0b0110
    assert all(c.inv(v) == v for v in c.elements())
    assert c.label(0b101) == "e1+e3"
    assert c.generator("e3") == 4


def test_table_validation_rejects_bad_data():
    with pytest.raises(fg.GroupError):
        fg.FiniteGroup([[0, 1], [1, 1]], {"g": 1})  # 1 has no inverse
    with pytest.raises(fg.GroupError):
        fg.FiniteGroup([[0, 1], [1, 0]], {"g": 0})  # g generates nothing


CYC = {"kind": "cyclic", "n": 2}


@pytest.mark.parametrize("data,message", [
    (5, "group is not an object (got an integer)"),
    ({"kind": "cyclic", "n": True}, "field 'n' is not an integer (got a boolean)"),
    ({"kind": "cyclic", "n": "4"}, "field 'n' is not an integer (got a string)"),
    ({"kind": "cyclic", "n": 4.0}, "field 'n' is not an integer (got a number)"),
    ({"kind": "cyclic", "n": 4, "name": 5}, "field 'name' is not a string"),
    ({"kind": "boolean", "k": "2"}, "field 'k' is not an integer"),
    ({"kind": "boolean", "k": 2, "names": ["a", 1]}, "names[1] is not a string"),
    ({"kind": "semidirect", "c": 5, "q": CYC, "action": {}},
     "field 'c' is not an object"),
    ({"kind": "semidirect", "c": CYC, "q": CYC, "action": {"g": [0, "1"]}},
     "action['g'][1] is not an integer"),
    ({"kind": "semidirect", "c": {"kind": "boolean", "k": 2},
      "q": CYC, "action": {"g": [[0, 1], [1, None]]}},
     "action['g'][1][1] is not an integer (got null)"),
    ({"kind": "direct", "factors": {}}, "field 'factors' is not a list"),
    ({"kind": "dicyclic", "n": None}, "field 'n' is not an integer (got null)"),
    ({"kind": "permutations", "perms": {"s": [1, "0"]}},
     "perms['s'][1] is not an integer"),
    ({"kind": "permutations", "perms": [[1, 0]]}, "field 'perms' is not an object"),
    ({"kind": "table", "table": [[0, 1], 5], "generators": {"a": 1}},
     "table[1] is not a list"),
    ({"kind": "table", "table": [[0, 1], [1, 0]], "generators": {"a": 1},
      "labels": [1, "a"]}, "labels[0] is not a string"),
])
def test_group_json_names_the_bad_field(data, message):
    with pytest.raises(fg.GroupError) as exc:
        fg.group_from_json(data)
    assert message in str(exc.value)


@pytest.mark.parametrize("data,message", [
    ({"kind": "cyclic", "n": 10_000_000}, "cyclic order 10000000"),
    ({"kind": "boolean", "k": 10}, "boolean order 2^10"),
    ({"kind": "dicyclic", "n": 129}, "dicyclic order 516"),
    ({"kind": "semidirect", "c": {"kind": "boolean", "k": 5},
      "q": {"kind": "cyclic", "n": 17, "name": "h"}, "action": {}},
     "semidirect product order 544"),
    ({"kind": "direct", "factors": [{"kind": "cyclic", "n": 32},
                                    {"kind": "cyclic", "n": 17, "name": "h"}]},
     "direct product order 544"),
    ({"kind": "table", "table": [[0]] * 513, "generators": {}},
     "table order 513"),
    ({"kind": "permutations", "perms": {"s": list(range(513))}},
     "perms['s'] degree 513"),
    # the closure of a 7-cycle and a transposition is all of S7
    ({"kind": "permutations", "perms": {"s": [1, 2, 3, 4, 5, 6, 0],
                                        "t": [1, 0, 2, 3, 4, 5, 6]}},
     "permutations generate more than 512 elements"),
])
def test_group_json_order_cap(data, message):
    with pytest.raises(fg.GroupError) as exc:
        fg.group_from_json(data)
    assert message in str(exc.value)
    assert f"{fg.MAX_GROUP_ORDER}" in str(exc.value)


def test_group_json_order_cap_admits_its_bound():
    assert fg.MAX_GROUP_ORDER == 512
    assert fg.group_from_json({"kind": "cyclic", "n": 512}).order == 512
    assert fg.group_from_json({"kind": "boolean", "k": 9}).order == 512


@pytest.mark.parametrize("group", [fg.build_boolean_vectors(9),
                                   fg.build_cyclic(512)],
                         ids=["boolean-9", "cyclic-512"])
def test_order_cap_tables_build_within_budget(group):
    """MAX_GROUP_ORDER promises that an order-512 table builds quickly:
    decoding and validating its table JSON stays under 2 s."""
    text = json.dumps(fg.group_to_json(group))
    start = time.perf_counter()
    built = fg.group_from_json(text)
    assert time.perf_counter() - start < 2
    assert built.table == group.table and built.order == fg.MAX_GROUP_ORDER


V4 = {"kind": "boolean", "k": 2}
FLIP = {"kind": "cyclic", "n": 2, "name": "t"}
D4_ORDERS = [1, 2, 2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("data,orders", [
    # V4 ⋊ Z/2 swapping the basis vectors, the dihedral group of order 8,
    # with the action as cycle notation and as a 0/1 matrix.
    ({"kind": "semidirect", "c": V4, "q": FLIP,
      "action": {"t": "(e1 e2)"}}, D4_ORDERS),
    ({"kind": "semidirect", "c": V4, "q": FLIP,
      "action": {"t": [[0, 1], [1, 0]]}}, D4_ORDERS),
    # Z/3 ⋊ Z/2 by inversion, as a permutation list: S3.
    ({"kind": "semidirect", "c": {"kind": "cyclic", "n": 3, "name": "r"},
      "q": FLIP, "action": {"t": [0, 2, 1]}}, [1, 2, 2, 2, 3, 3]),
    ({"kind": "direct", "factors": [{"kind": "cyclic", "n": 2, "name": "a"},
                                    {"kind": "cyclic", "n": 3, "name": "b"}]},
     [1, 2, 3, 3, 6, 6]),
    ({"kind": "direct", "factors": [{"kind": "cyclic", "n": 2, "name": x}
                                    for x in "abc"]}, [1] + [2] * 7),
    ({"kind": "dicyclic", "n": 3}, [1, 2, 3, 3] + [4] * 6 + [6, 6]),
], ids=["semidirect-cycles", "semidirect-matrix", "semidirect-list",
        "direct-2", "direct-3", "dicyclic"])
def test_group_json_builds_each_kind(data, orders):
    g = fg.group_from_json(data)
    assert g.order == len(orders)
    assert sorted(g.element_orders()) == orders
    assert fg.group_from_json(fg.group_to_json(g)).table == g.table


def test_group_json_cycle_and_matrix_actions_agree():
    swap = [fg.group_from_json({"kind": "semidirect", "c": V4, "q": FLIP,
                                "action": {"t": spec}})
            for spec in ("(e1 e2)", [[0, 1], [1, 0]])]
    assert swap[0].table == swap[1].table
    t, e1, e2 = (swap[0].generator(n) for n in ("t", "e1", "e2"))
    assert swap[0].conj(t, e1) == e2


def acting(spec, c=V4):
    """V4 (or c) ⋊ Z/2, with the generator t acting by spec."""
    return {"kind": "semidirect", "c": c, "q": FLIP, "action": {"t": spec}}


TWO = [[0, 1], [1, 0]]
Z3 = {"kind": "cyclic", "n": 3}
Z4 = {"kind": "cyclic", "n": 4}


@pytest.mark.parametrize("data,message", [
    ({"kind": "table", "table": [], "generators": {}},
     "empty multiplication table"),
    ({"kind": "table", "table": [[0, 1], [1]], "generators": {"a": 1}},
     "multiplication table is not square over 0..n-1"),
    ({"kind": "table", "table": TWO, "generators": {"a": 1}, "labels": ["1"]},
     "label list length does not match group order"),
    ({"kind": "table", "table": TWO, "generators": {"a": 2}},
     "generator 'a' index out of range"),
    ({"kind": "free"}, "unknown group kind 'free'"),
    ({"kind": "cyclic", "n": 0}, "cyclic group order must be positive"),
    ({"kind": "boolean", "k": 0}, "need at least one basis vector"),
    ({"kind": "boolean", "k": 2, "names": ["a"]},
     "need one name per basis vector"),
    ({"kind": "boolean", "k": 2, "names": ["a", "a"]},
     "basis vector names must be distinct"),
    ({"kind": "dicyclic", "n": 0}, "dicyclic parameter must be positive"),
    ({"kind": "semidirect", "c": V4, "q": FLIP, "action": {}},
     "action must be given on exactly Q's generators"),
    ({"kind": "cyclic"}, "malformed group JSON: 'n'"),
    ({"kind": "direct", "factors": [V4]},
     "direct product needs at least two factors"),
    (acting("((e1 e2))"), "nested parentheses in cycle notation"),
    (acting("e1 (e2)"), "unexpected character 'e' in cycle notation"),
    (acting("(e1 e2"), "unbalanced parentheses in cycle notation"),
    (acting(")(e1 e2)"), "unbalanced parentheses in cycle notation"),
    (acting("(e1 e2))"), "unbalanced parentheses in cycle notation"),
    (acting(")"), "unbalanced parentheses in cycle notation"),
    (acting("(e1 e1)"), "repeated basis vector in cycle notation"),
    (acting("(x1 e2)"), "expected basis vector like e1, got 'x1'"),
    (acting("(ex e2)"), "expected basis vector like e1, got 'ex'"),
    (acting("(e1 e3)"), "basis vector 'e3' out of range for k=2"),
    (acting([[1, 0]]), "need a 2×2 matrix"),
    (acting("(e1 e2)", Z3), "action['t'] is a cycle-notation action, which "
     "needs a (Z/2)^k factor with index = bitmask"),
    (acting([[1]], Z3), "action['t'] is a matrix action, which needs a "
     "(Z/2)^k factor with index = bitmask"),
    (acting("(e1 e2)", Z4), "action['t'] is a cycle-notation action, which "
     "needs a (Z/2)^k factor with index = bitmask"),
    (acting([[1, 0], [1, 1]], Z4), "action['t'] is a matrix action, which "
     "needs a (Z/2)^k factor with index = bitmask"),
    (acting(5), "cannot interpret action['t'] = 5"),
    (acting(None), "cannot interpret action['t'] = null"),
    (acting({"e1": "e2"}), "cannot interpret action['t'] = " '{"e1": "e2"}'),
    ({"kind": "permutations", "perms": {}}, "need at least one permutation"),
    ({"kind": "permutations", "perms": {"s": [0, 0]}},
     "'s' is not a permutation of 0..1"),
], ids=["empty-table", "ragged-table", "label-count", "generator-range",
        "unknown-kind", "cyclic-order", "boolean-rank", "boolean-names",
        "boolean-names-repeated",
        "dicyclic-order", "action-keys", "missing-field", "direct-one-factor", "cycle-nested",
        "cycle-stray-character", "cycle-unclosed", "cycle-stray-close-first",
        "cycle-stray-close-last", "cycle-only-close", "cycle-repeated",
        "cycle-bad-token", "cycle-bad-index", "cycle-out-of-range",
        "matrix-shape", "cycle-not-boolean", "matrix-not-boolean",
        "cycle-order-4-cyclic", "matrix-order-4-cyclic", "action-type",
        "action-null", "action-object", "perms-empty",
        "perms-not-permutation"])
def test_group_json_refuses_malformed_groups(data, message):
    with pytest.raises(fg.GroupError) as exc:
        fg.group_from_json(data)
    assert str(exc.value) == message


def _accepts(table, gens):
    try:
        fg.FiniteGroup(table, gens)
    except fg.GroupError:
        return False
    return True


# A loop of order 5 (a Latin square with identity 0, every x·x = 0) that
# is not a group, times Z/2.  Its first generator z = (1, 0) lies in the
# nucleus and passes the row test; the loop's generators do not.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
Z2_LOOP5 = tuple(tuple(5 * (i ^ j) + LOOP5[p][q]
                       for j in range(2) for q in range(5))
                 for i in range(2) for p in range(5))


def _renamed(table, gens, perm):
    """The same table with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out, {k: perm[v] for k, v in gens.items()}


def _shuffled(table, gens, rng):
    """The same table with its elements renamed by a seeded permutation."""
    perm = list(range(len(table)))
    rng.shuffle(perm)
    return _renamed(table, gens, perm)


def _oracle_cases():
    """(table, generators) pairs: every catalog group of order <= 12, the
    groups of the relabelled fixtures and of counterexample, and Z/2 times
    a non-associative loop; each also with only its first generator kept,
    with seeded one-entry corruptions and with seeded renamings."""
    rng = random.Random(31)
    loop = {"z": 5, "a": 1, "b": 2}
    yield Z2_LOOP5, loop
    for _ in range(10):
        yield _shuffled(Z2_LOOP5, loop, rng)
    groups = list(ds.small_groups(12))
    for gog in (relabelled(gw.build_sl2z()), relabelled(build_z2_z3()),
                relabelled(build_counterexample_gog())):
        groups += list(gog.vertices.values())
        groups += [e.group for e in gog.edges.values()]
    counter = build_counterexample_gog()
    groups += [counter.vertices["vA"], counter.vertices["vB"]]
    for g in groups:
        gens = dict(g.generators)
        yield g.table, gens
        first = next(iter(gens))
        yield g.table, {first: gens[first]}
        yield _shuffled(g.table, gens, rng)
        for _ in range(3 if g.order > 1 else 0):
            t = [list(row) for row in g.table]
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            t[i][j] = (t[i][j] + rng.randrange(1, g.order)) % g.order
            yield t, gens


def test_table_check_agrees_with_the_triple_oracle():
    verdicts = []
    for table, gens in _oracle_cases():
        expected = oc.is_group_generated_by(table, list(gens.values()))
        assert _accepts(table, gens) == expected, (table, gens)
        verdicts.append(expected)
    assert verdicts.count(True) > 40 and verdicts.count(False) > 100


def test_non_associative_table_above_order_64_is_rejected():
    # Z/128 with 2+36 misread as 39: 0 is still the identity, every
    # element keeps its inverse, and the old 20,000-triple sample misses it.
    t = [list(row) for row in fg.build_cyclic(128, "a").table]
    t[2][36] = 39
    assert oc.associativity_failure(t) is None
    assert oc.associativity_failure(t, exhaustive_limit=128) is not None
    with pytest.raises(fg.GroupError, match="associativity fails"):
        fg.FiniteGroup(t, {"a": 1})


def test_large_products_pass_the_exact_check():
    g = fg.build_direct_product(fg.build_cyclic(4, "c"), fg.build_dicyclic(6))
    assert g.order == 96
    assert fg.FiniteGroup(g.table, g.generators).order == 96


def test_random_tables_are_closed_groups():
    # product of two constructors stays a group under validation
    rng = random.Random(5)
    for _ in range(5):
        n = rng.choice([2, 3, 4, 5])
        g = fg.build_cyclic(n)
        h = fg.build_boolean_vectors(rng.choice([1, 2]))
        p = fg.build_direct_product(g, h)
        assert p.order == g.order * h.order
        assert p.identity == 0


def revalidated(group):
    """identity and inverses of group's table and generators run through
    the validating constructor, which the module's constructors skip."""
    checked = fg.FiniteGroup(group.table, group.generators, group.labels)
    return checked.identity, checked.inverses


@pytest.mark.parametrize("build", [
    *(lambda n=n: fg.build_cyclic(n, "c") for n in range(1, 13)),
    *(lambda k=k: fg.build_boolean_vectors(k) for k in range(1, 7)),
    *(lambda n=n: fg.build_dicyclic(n) for n in range(1, 9)),
    lambda: fg.build_direct_product(fg.build_cyclic(4, "c"),
                                    fg.build_dicyclic(6)),
    lambda: fg.group_from_permutations({"p": (1, 2, 3, 4, 0),
                                        "q": (1, 0, 2, 3, 4)}),
], ids=[*(f"cyclic-{n}" for n in range(1, 13)),
        *(f"boolean-{k}" for k in range(1, 7)),
        *(f"dicyclic-{n}" for n in range(1, 9)), "direct-96", "s5"])
def test_constructor_tables_pass_validation(build):
    group = build()
    assert (group.identity, group.inverses) == revalidated(group)


def test_builtin_and_catalog_groups_pass_validation():
    groups = list(ds._catalog())
    for gog in (gw.build_sl2z(), gw.build_counterexample(), gw.build_z2z3()):
        groups += [*gog.vertices.values(),
                   *(e.group for e in gog.edges.values())]
    for group in groups:
        assert (group.identity, group.inverses) == revalidated(group)


# -- row operations against the entry-by-entry oracles ------------------------

_COUNTER = build_counterexample_gog()
ROW_GROUPS = ds.small_groups(12) + [
    _COUNTER.vertices["vA"], _COUNTER.vertices["vB"],
    *(e.group for e in _COUNTER.edges.values())]


@st.composite
def renamed_groups(draw):
    """A catalog or counterexample group with its elements renamed."""
    g = draw(st.sampled_from(ROW_GROUPS))
    return fg.FiniteGroup(*_renamed(g.table, g.generators,
                                    draw(st.permutations(range(g.order)))))


def _validation(table, gens):
    """(identity, inverses) of FiniteGroup(table, gens), or its error."""
    try:
        g = fg.FiniteGroup(table, gens)
    except fg.GroupError as exc:
        return str(exc)
    return g.identity, g.inverses


@settings(max_examples=120)
@given(group=renamed_groups(), data=st.data())
def test_table_validation_matches_the_entry_scans(group, data):
    """A renamed group table, possibly with one entry changed, gets the
    identity and inverses the entry scans find, or the same error; the
    exhaustive triple oracle judges associativity."""
    n = group.order
    table = [list(row) for row in group.table]
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i][j] = (table[i][j] + data.draw(st.integers(1, n - 1))) % n
    got = _validation(table, group.generators)
    e = oc.identity_by_scan(table)
    if e is None:
        assert got == "no identity element"
        return
    inverses, bad = oc.inverses_by_scan(table, e)
    if inverses is None:
        assert got == f"element {bad} has no inverse"
        return
    if oc.associativity_failure(table, exhaustive_limit=n) is not None:
        assert isinstance(got, str)
        if got.startswith("associativity fails at "):
            a, b, c = map(int, got.removeprefix(
                "associativity fails at ").strip("()").split(","))
            assert table[table[a][b]][c] != table[a][table[b][c]]
        else:
            assert got == "declared generators do not generate the group"
        return
    if oc.is_group_generated_by(table, list(group.generators.values())):
        assert got == (e, inverses)
    else:
        assert got == "declared generators do not generate the group"


@settings(max_examples=120)
@given(src=renamed_groups(), data=st.data())
def test_check_hom_matches_the_pair_scan(src, data):
    """Random maps, homomorphisms and near-homomorphisms get the pair
    scan's status and witness."""
    kind = data.draw(st.sampled_from(["trivial", "rename", "images", "any"]))
    if kind == "rename":
        perm = data.draw(st.permutations(range(src.order)))
        tgt = fg.FiniteGroup(*_renamed(src.table, src.generators, perm))
        mapping = list(perm)
    else:
        tgt = data.draw(renamed_groups())
        elements = st.integers(0, tgt.order - 1)
        if kind == "trivial":
            mapping = [tgt.identity] * src.order
        elif kind == "images":
            mapping = list(fg.GroupHom.from_generator_images(src, tgt, {
                name: data.draw(elements) for name in src.generators
            }).mapping)
        else:
            mapping = data.draw(st.lists(elements, min_size=src.order,
                                         max_size=src.order))
    if tgt.order > 1 and data.draw(st.booleans()):
        x = data.draw(st.integers(0, src.order - 1))
        mapping[x] = (mapping[x] + data.draw(
            st.integers(1, tgt.order - 1))) % tgt.order
    h = fg.GroupHom(src, tgt, tuple(mapping))
    assert fg.check_hom(h) == oc.check_hom_by_pairs(h)


def test_check_hom_matches_the_pair_scan_on_every_small_map():
    groups = ds.small_groups(4)
    for src, tgt in itertools.product(groups, repeat=2):
        if tgt.order ** src.order <= 256:
            for m in itertools.product(range(tgt.order), repeat=src.order):
                h = fg.GroupHom(src, tgt, m)
                assert fg.check_hom(h) == oc.check_hom_by_pairs(h), h


@settings(max_examples=80)
@given(group=renamed_groups(), data=st.data())
def test_coset_data_matches_the_product_scan(group, data):
    gens = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    sub = list(fg.subgroup_closure(group, gens).elements)
    sub = data.draw(st.permutations(sub)) + data.draw(
        st.lists(st.sampled_from(sub), max_size=2))
    reps, dec = fg.coset_data(group, sub)
    want_reps, want_dec = oc.coset_data_by_products(group, sub)
    assert (reps, list(dec.items())) == (want_reps, list(want_dec.items()))


@settings(max_examples=80)
@given(data=st.data())
def test_permutation_group_matches_the_tuple_closure(data):
    degree = data.draw(st.integers(0, 5))
    names = data.draw(st.lists(st.sampled_from("pqr"), min_size=1,
                               max_size=3, unique=True))
    perms = {name: tuple(data.draw(st.permutations(range(degree))))
             for name in names}
    elts, table = oc.permutation_table_by_tuples(perms)
    g = fg.group_from_permutations(perms)
    assert g.table == tuple(map(tuple, table))
    assert g.labels == tuple(map(fg.cycle_notation, elts))
    assert g.generators == {name: elts.index(p) for name, p in perms.items()}
    assert (g.identity, g.inverses) == revalidated(g)


# -- cycle notation and basis permutations -----------------------------------

def test_basis_cycle_perm_matches_oracle():
    assert fg.basis_cycle_perm("(e1 e2)", 4) == FX
    assert fg.basis_cycle_perm("(e3 e4)", 4) == FY
    assert fg.basis_cycle_perm("(e1 e2 e3)", 4) == HZ
    assert fg.basis_cycle_perm("(e1 e3)(e2 e4)", 4) == PSI_C
    assert fg.basis_cycle_perm("()", 4) == tuple(range(16))


def test_basis_matrix_perm_rejects_singular():
    with pytest.raises(fg.GroupError):
        fg.basis_matrix_perm([[1, 1], [1, 1]], 2)


def test_cycle_notation_roundtrip_label():
    assert fg.cycle_notation((1, 0, 2)) == "(0 1)"
    assert fg.cycle_notation((0, 1, 2)) == "()"


# -- closures: the 6 / 24 pair ------------------------------------------------

def test_closure_orders_six_and_twentyfour():
    # oracle first: raw tuple closure
    assert len(perm_closure_oracle([FX, HZ])) == 6
    assert len(perm_closure_oracle([FY, HZ])) == 24
    g6 = fg.group_from_permutations({"u": FX, "v": HZ})
    g24 = fg.group_from_permutations({"u": FY, "v": HZ})
    assert g6.order == 6
    assert g24.order == 24
    assert fg.are_isomorphic(g6, g24) is None
    # ⟨(e1 e2),(e1 e2 e3)⟩ is the symmetric group on 3 letters
    s3 = fg.group_from_permutations({"s": (1, 0, 2), "c": (1, 2, 0)})
    assert fg.are_isomorphic(g6, s3) is not None


def test_subgroup_closure_in_table_group():
    b = fg.build_cyclic(6, "b")
    sub = fg.subgroup_closure(b, [2])
    assert sub.elements == (0, 2, 4)
    sub2 = fg.subgroup_closure(b, [3])
    assert sub2.elements == (0, 3)


def test_all_subgroups_of_z6():
    b = fg.build_cyclic(6)
    orders = sorted(s.order for s in fg.all_subgroups(b))
    assert orders == [1, 2, 3, 6]


def test_all_subgroups_matches_every_element_oracle():
    counterexample = build_counterexample_gog()
    groups = ds.small_groups(12) + [counterexample.vertices["vA"],
                                    counterexample.vertices["vB"]]
    for grp in groups:
        found = [s.elements for s in fg.all_subgroups(grp)]
        assert found == [s.elements
                         for s in oc.all_subgroups_by_every_element(grp)]


def test_coset_data_decomposition():
    b = fg.build_cyclic(6, "b")
    reps, dec = fg.coset_data(b, (0, 3))
    assert reps == (0, 1, 2)
    for g in b.elements():
        r, h = dec[g]
        assert h in (0, 3)
        assert b.mul(r, h) == g
        assert r == min(b.mul(g, x) for x in (0, 3))


# -- semidirect products and the composition convention ----------------------

def build_A():
    c = fg.build_boolean_vectors(4)
    q = fg.build_boolean_vectors(2, names=("x", "y"))
    return fg.build_semidirect(c, q, {"x": FX, "y": FY})


def build_B():
    c = fg.build_boolean_vectors(4)
    q = fg.build_cyclic(3, "z")
    return fg.build_semidirect(c, q, {"z": HZ})


def test_semidirect_orders():
    a = build_A()
    b = build_B()
    assert a.order == 64
    assert b.order == 48
    assert a.element_order(a.generator("x")) == 2
    assert b.element_order(b.generator("z")) == 3


def test_semidirect_rejects_non_action():
    c = fg.build_boolean_vectors(4)
    q = fg.build_cyclic(3, "z")
    with pytest.raises(fg.GroupError):
        # an involution cannot generate a Z/3 action
        fg.build_semidirect(c, q, {"z": FX})


def group_data(grp):
    """Table, labels and generators in order: what two constructions of
    one group must share."""
    return grp.table, grp.labels, list(grp.generators.items())


def semidirect_outcome(build, c, q, action):
    """group_data of build(c, q, action), or the message it refuses with."""
    try:
        return group_data(build(c, q, action))
    except fg.GroupError as exc:
        return str(exc)


def test_counterexample_factors_match_the_entry_oracle():
    for q, action in ((fg.build_boolean_vectors(2, names=("x", "y")),
                       {"x": FX, "y": FY}),
                      (fg.build_cyclic(3, "z"), {"z": HZ})):
        c = fg.build_boolean_vectors(4)
        assert group_data(fg.build_semidirect(c, q, action)) == \
            group_data(oc.semidirect_by_entries(c, q, action))


def test_catalog_matches_the_entry_oracle(monkeypatch):
    catalog = ds._catalog()
    calls = []
    monkeypatch.setattr(fg, "build_semidirect",
                        lambda *args: calls.append(args) or
                        oc.semidirect_by_entries(*args))
    rebuilt = ds._catalog.__wrapped__()
    assert len(calls) == 7  # four dihedral groups, three direct products
    assert list(map(group_data, rebuilt)) == list(map(group_data, catalog))


@settings(max_examples=80)
@given(k=st.integers(1, 4), n=st.integers(1, 6),
       kind=st.sampled_from(["matrix", "permutation", "identity"]),
       q_name=st.sampled_from(["z", "s", "t", "e1"]),
       seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_semidirect_matches_the_entry_oracle(k, n, kind, q_name, seed, data):
    # (Z/2)^k ⋊ Z/n: a linear action builds when its order divides n, and
    # any other is refused; so is a Z/n generator named like a basis
    # vector.  Both factors may be renumbered, so neither identity is at 0.
    c, q = fg.build_boolean_vectors(k), fg.build_cyclic(n, q_name)
    if kind == "matrix":
        rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=k,
                                           max_size=k),
                                  min_size=k, max_size=k))
        try:
            perm = fg.basis_matrix_perm(rows, k)
        except fg.GroupError:
            perm = tuple(range(1 << k))
    elif kind == "permutation":
        perm = tuple(data.draw(st.permutations(range(1 << k))))
    else:
        perm = tuple(range(1 << k))
    rng = random.Random(seed)
    if rng.random() < 0.5:
        c, sigma = permuted_group(c, rng)
        moved = [0] * c.order
        for x, y in enumerate(perm):
            moved[sigma[x]] = sigma[y]
        perm = tuple(moved)
    if rng.random() < 0.5:
        q = permuted_group(q, rng)[0]
    action = {q_name: perm}
    assert semidirect_outcome(fg.build_semidirect, c, q, action) == \
        semidirect_outcome(oc.semidirect_by_entries, c, q, action)


def test_conjugation_in_semidirect_recovers_action():
    # ad((1,q))|C must equal action(q); this pins the composition convention
    a = build_A()
    c_sub = fg.subgroup_closure(a, [a.generator(f"e{i}") for i in (1, 2, 3, 4)])
    assert c_sub.order == 16
    ad_x = fg.conjugation_action(a, a.generator("x"), c_sub)
    local, embed = c_sub.as_group()
    # embed is index-preserving here because C sits first in the encoding
    for k in range(local.order):
        pass
    # check on basis vectors: x swaps e1, e2 and fixes e3, e4
    back = {e: k for k, e in embed.items()}
    e = {i: back[a.generator(f"e{i}")] for i in (1, 2, 3, 4)}
    assert ad_x(e[1]) == e[2] and ad_x(e[2]) == e[1]
    assert ad_x(e[3]) == e[3] and ad_x(e[4]) == e[4]


def test_as_group_builds_each_subgroup_as_the_checks_would():
    for grp in (fg.build_cyclic(6), ds._dihedral(4),
                fg.build_boolean_vectors(3)):
        for sub in fg.all_subgroups(grp):
            local, embed = sub.as_group()
            checked = fg.FiniteGroup(local.table, local.generators,
                                     local.labels)
            assert (checked.table, checked.inverses) == \
                (local.table, local.inverses)
            assert local.identity == 0 == checked.identity
            assert sorted(embed.values()) == list(sub.elements)


@pytest.mark.parametrize("elements, message", [
    ((0, 1), "elements [0, 1] are not closed under the group product"),
    ((), "empty multiplication table"),
], ids=["not-closed", "empty"])
def test_as_group_refuses_a_set_that_is_not_a_subgroup(elements, message):
    z4 = fg.build_cyclic(4)
    sub = fg.Subgroup(z4, elements)
    for call in (sub.as_group, lambda: fg.conjugation_action(z4, 1, sub)):
        with pytest.raises(fg.GroupError) as err:
            call()
        assert str(err.value) == message


def test_hom_report_witness():
    z4 = fg.build_cyclic(4)
    z2 = fg.build_cyclic(2)
    good = fg.GroupHom.from_generator_images(z4, z2, {"g": 1})
    assert fg.check_hom(good).status == "valid_hom"
    bad = fg.GroupHom(z4, z4, (0, 2, 1, 3))
    rep = fg.check_hom(bad)
    assert rep.status == "invalid"
    x, y = rep.witness
    assert bad.mapping[z4.mul(x, y)] != z4.mul(bad.mapping[x], bad.mapping[y])


def test_psi_is_automorphism_of_A():
    # x↔y and (e1 e3)(e2 e4) on C extends to an automorphism of A
    a = build_A()
    images = {"x": a.generator("y"), "y": a.generator("x")}
    for i, j in ((1, 3), (2, 4)):
        images[f"e{i}"] = a.generator(f"e{j}")
        images[f"e{j}"] = a.generator(f"e{i}")
    psi = fg.GroupHom.from_generator_images(a, a, images)
    assert fg.check_hom(psi).status == "valid_iso"


def test_monos_z2_into_z4_and_z6():
    z2 = fg.build_cyclic(2)
    assert len(fg.all_monomorphisms(z2, fg.build_cyclic(4))) == 1
    assert len(fg.all_monomorphisms(z2, fg.build_cyclic(6))) == 1
    assert len(fg.all_monomorphisms(z2, fg.build_cyclic(5))) == 0
    assert len(fg.all_monomorphisms(z2, fg.build_boolean_vectors(2))) == 3


def test_hom_search_matches_pairwise_closure_oracle():
    """all_monomorphisms, isomorphisms_iter and automorphisms list the
    earlier search's homomorphisms in its order: every pair of catalog
    groups where the order divides, each catalog group against a seeded
    renaming of itself, and both counterexample vertex groups.  Between
    groups of one order the oracle's monomorphisms are its isomorphisms
    (a one-to-one map onto a group of the same order is onto), so that
    list is built once."""
    rng = random.Random(47)
    catalog = ds.small_groups(12)
    renamed = [fg.FiniteGroup(*_shuffled(g.table, g.generators, rng))
               for g in catalog]
    counter = build_counterexample_gog()
    groups = catalog + [counter.vertices["vA"], counter.vertices["vB"]]
    pairs = [(a, b) for a in groups for b in groups if b.order % a.order == 0]
    pairs += [p for g, r in zip(catalog, renamed) for p in ((g, r), (r, g))]
    for a, b in pairs:
        isos = oc.isomorphisms_by_closure(a, b)
        monos = isos if a.order == b.order else \
            oc.monomorphisms_by_closure(a, b)
        assert fg.all_monomorphisms(a, b) == monos, (a, b)
        assert list(fg.isomorphisms_iter(a, b)) == isos, (a, b)
        if a is b:
            assert list(a.automorphisms()) == isos, a
    for r in renamed:
        assert list(r.automorphisms()) == oc.isomorphisms_by_closure(r, r)


def test_are_isomorphic_cap():
    a = build_A()
    doubled = fg.build_direct_product(a, fg.build_cyclic(2, "w"))
    assert doubled.order == 128
    with pytest.raises(fg.GroupError):
        fg.are_isomorphic(doubled, doubled)
    iso = fg.are_isomorphic(a, a)
    assert iso is not None and fg.check_hom(iso).status == "valid_iso"


def test_dicyclic_q8():
    q8 = fg.build_dicyclic(2)
    assert q8.order == 8
    orders = sorted(q8.element_orders())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert fg.are_isomorphic(q8, fg.build_cyclic(8)) is None


def test_hom_composition_convention():
    z12 = fg.build_cyclic(12)
    z6 = fg.build_cyclic(6)
    z3 = fg.build_cyclic(3)
    f = fg.GroupHom.from_generator_images(z12, z6, {"g": 1})
    g = fg.GroupHom.from_generator_images(z6, z3, {"g": 1})
    comp = g.compose(f)
    assert comp.source is z12 and comp.target is z3
    assert all(comp(i) == g(f(i)) for i in z12.elements())


def test_random_iso_search_agrees_with_structure():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice([3, 4, 5, 6, 8])
        g1 = fg.build_cyclic(n)
        # relabeled copy via a random table permutation
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[perm[g1.mul(inv[i], inv[j])] for j in range(n)] for i in range(n)]
        g2 = fg.FiniteGroup(table, {"g": perm[g1.generator("g")]})
        h = fg.are_isomorphic(g1, g2)
        assert h is not None
        assert fg.check_hom(h).status == "valid_iso"
