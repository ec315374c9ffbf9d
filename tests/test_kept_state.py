"""What the package keeps between calls never changes an answer.

The rule for kept state is stated once, in the fingroup module
docstring: a fact lives in the _facts of the group or graph it is
derived from, or in a functools.cache of plain values.  The state
machine below interleaves the calls that fill and read those facts: it
loads presentations and renumbered copies, parses and multiplies words,
walks, asks for filling certificates, runs small enumerations and
expansions, and builds edges whose mapping was checked from another
group.  Each result must equal the same call made with
nothing kept: after forget_kept_state, on the graph rebuilt from its
groups.  A guard keeps forget_kept_state complete: every slot and every
functools.cache in the package must be known to it.
"""

import ast
import copy
import gc
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule

import vfree
import vfree.cli as cli
import vfree.defspace as ds
import vfree.fingroup as fg
import vfree.genericity as gen
import vfree.gogwords as gw
from test_defspace_dedup import as_json, permuted_group

KEPT_SLOTS = {fg.FiniteGroup: ("_facts",),
              gw.GraphOfGroups: ("_facts",)}
"""The slots each class fills on first use, which forget_kept_state
empties."""

BUILT_SLOTS = {fg.FiniteGroup: ("table", "order", "identity", "inverses",
                                "generators", "labels"),
               gw.GraphOfGroups: ("vertices", "edges", "base_vertex",
                                  "spanning_tree", "_crossing", "_incident",
                                  "_from_base", "_letter_home")}
"""The slots set at construction and never changed after it."""

CACHES = (ds._shape_ends, ds._shape_tree, ds._canonical_shapes, cli._parser,
          gw._builtin_tables)
"""Every functools.cache in the package but ds._catalog; forget_kept_state
clears each."""


def live_holders():
    """Every live group and graph: each refers to its class, so
    gc.get_referrers finds it."""
    return [obj for obj in gc.get_referrers(*KEPT_SLOTS)
            if type(obj) in KEPT_SLOTS]


def forget_kept_state(holders=None):
    """Empty the kept slots of the holders, by default every live group
    and graph, and clear every cache in CACHES, so that the next call
    runs as if nothing were kept.

    A caller that forgets before each of several calls may find the
    holders once, before the first: what a call creates and the caller
    does not keep is reachable afterwards only through CACHES or the
    kept slots of objects older than the call, which this empties.

    ds._catalog is not cleared: callers hold its groups (small_groups
    returns them, and enumerated graphs are built on them), and a second
    catalog would leave those groups outside it, so that _mono_facts
    would keep their facts elsewhere.  Its groups' kept slots are
    emptied like those of any other group."""
    for obj in live_holders() if holders is None else holders:
        for slot in KEPT_SLOTS[type(obj)]:   # unset if __init__ raised
            getattr(obj, slot, {}).clear()
    for cached in CACHES:
        cached.cache_clear()


def rebuilt(gog):
    """A new graph on the same groups and edges, compiled afresh."""
    return gw.GraphOfGroups(gog.vertices.items(), gog.edges.values(),
                            gog.base_vertex, gog.spanning_tree)


def renumbered(gog, rng):
    """gog with each of its groups replaced by a renumbered copy, one copy
    per group object, and each injection carried along."""
    copies = {}

    def renumber(grp):
        if grp not in copies:
            copies[grp] = permuted_group(grp, rng)
        return copies[grp]

    edges = []
    for e in gog.edges.values():
        c, pi_c = renumber(e.group)
        injs = []
        for hom in e.inj:
            x, pi = renumber(hom.target)
            mapping = [0] * c.order
            for i, y in enumerate(hom.mapping):
                mapping[pi_c[i]] = pi[y]
            injs.append(fg.GroupHom(c, x, tuple(mapping)))
        edges.append(gw.Edge(e.id, c, e.ends, tuple(injs)))
    vertices = [(v, renumber(grp)[0]) for v, grp in gog.vertices.items()]
    return gw.GraphOfGroups(vertices, edges, gog.base_vertex,
                            gog.spanning_tree)


def raw_loop(gog, rng, length):
    """A loop word at the base vertex, not yet reduced: up to `length`
    random traversals out and the same way back, with a random element
    of the vertex group before each traversal and at the end."""
    out, v = [], gog.base_vertex
    for _ in range(length):
        if not gog.incident(v):
            break
        out.append(rng.choice(gog.incident(v)))
        v = gog.far(out[-1])
    steps, v = [], gog.base_vertex
    for t in out + [t.reverse() for t in reversed(out)]:
        steps.append((rng.randrange(gog.vertices[v].order), t))
        v = gog.far(t)
    return gw.NormalForm(v, tuple(steps),
                         rng.randrange(gog.vertices[v].order))


def outcome(op, gog):
    """op(gog), or the error it raises, named."""
    try:
        return op(gog)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def words_op(gog, rng):
    """Parse letter words and reduce raw loops, multiply and invert, and
    read every transversal."""
    letters = sorted(name for name, homes in gog._letter_home.items()
                     if len(homes) == 1)
    letters += sorted(set(gog.edges) - gog.spanning_tree)
    texts = [" ".join(rng.choice(letters) + rng.choice(("", "^-1"))
                      for _ in range(rng.randint(0, 6)))
             for _ in range(2 if letters else 0)]
    raws = [raw_loop(gog, rng, rng.randint(0, 4)) for _ in range(2)]

    def op(g):
        forms = [gw.parse_word(g, text) for text in texts]
        forms += [gw.normal_form(g, w) for w in raws]
        product = gw.path_multiply(g, gw.identity_nf(g), *forms)
        return (forms, product, gw.path_invert(g, product),
                [g.transversal(t) for t in sorted(g._crossing)])
    return op


def walk_op(gog, rng, seed):
    """Three trials of a walk on a random support with random weights."""
    raws = [raw_loop(gog, rng, rng.randint(0, 3))
            for _ in range(rng.randint(1, 4))]
    counts = [rng.randint(1, 3) for _ in raws]
    weights = tuple(Fraction(k, sum(counts)) for k in counts)
    length = rng.randint(0, 24)

    def op(g):
        support = tuple(gw.normal_form(g, w) for w in raws)
        spec = gen.RandomWalkSpec(support, weights, 1, seed)
        return [gen.sample_walk(g, spec, length, trial) for trial in range(3)]
    return op


def measure_ops(gog, rng, seeds):
    """One op per seed, each walking the same measure: the generator
    letters and random loops, with random weights.  Each op runs an
    experiment and three sample walks, so the second op reads the plan,
    its count of grams drawn and any grams compiled, that the first
    kept."""
    raws = [raw_loop(gog, rng, rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))]
    counts = [rng.randint(1, 3)
              for _ in range(len(gw.generator_letters(gog)) + len(raws))]
    weights = tuple(Fraction(k, sum(counts)) for k in counts)
    length = rng.randint(0, 40)

    def op_for(seed):
        def op(g):
            support = tuple(nf for _, nf in gw.generator_letters(g))
            support += tuple(gw.normal_form(g, w) for w in raws)
            spec = gen.RandomWalkSpec(support, weights, 2, seed)
            return (gen.run_genericity_experiment(g, spec, [length // 2,
                                                            length]),
                    [gen.sample_walk(g, spec, length, t) for t in range(3)])
        return op
    return [op_for(seed) for seed in seeds]


def fills_op(gog, rng):
    """The filling report of a product of two raw loops."""
    raws = [raw_loop(gog, rng, rng.randint(1, 3)) for _ in range(2)]

    def op(g):
        forms = [gw.normal_form(g, w) for w in raws]
        return gen.fills(g, gw.path_multiply(g, *forms))
    return op


SMALL = ds.small_groups(6)


def small_group(k, seed):
    """SMALL[k], or a copy renumbered by the seed."""
    if seed is None:
        return SMALL[k]
    return permuted_group(SMALL[k], random.Random(seed))[0]


SEEDS = st.integers(0, 7)   # few, so that calls repeat and read kept facts
SEED_RUNS = st.lists(SEEDS, min_size=1, max_size=4)
QUERIES = [(1, 0, 6), (1, 1, 4), (1, 1, 6), (2, 1, 4), (2, 1, 6),
           (1, 2, 3), (2, 2, 3)]


class KeptStateMachine(RuleBasedStateMachine):
    """Each call is recorded as (op, graph, result) in self.calls, and
    check_against_fresh_state replays each op with nothing kept."""

    graphs = Bundle("graphs")
    groups = Bundle("groups")

    def __init__(self):
        super().__init__()
        self.calls = []
        self.builtin = {}

    def record(self, op, gog=None):
        result = outcome(op, gog)
        self.calls.append((op, gog, result))
        return result

    # -- groups and graphs

    @rule(target=graphs, name=st.sampled_from(list(cli.BUILTIN_GROUPS)))
    def load_builtin(self, name):
        self.builtin[name] = cli.load_group(name)
        return self.builtin[name]

    @rule(target=graphs, gog=graphs, seed=SEEDS)
    def renumber_graph(self, gog, seed):
        return renumbered(gog, random.Random(seed))

    @rule(target=groups, k=st.integers(0, len(SMALL) - 1),
          seed=st.none() | SEEDS)
    def draw_group(self, k, seed):
        return small_group(k, seed)

    # -- words, walks and certificates on a graph

    @rule(gog=graphs, seeds=SEED_RUNS)
    def multiply_words(self, gog, seeds):
        for seed in seeds:
            self.record(words_op(gog, random.Random(seed)), gog)

    @rule(gog=graphs, seeds=SEED_RUNS)
    def walk(self, gog, seeds):
        for seed in seeds:
            self.record(walk_op(gog, random.Random(seed), seed), gog)

    @rule(gog=graphs, seed=SEEDS,
          seeds=st.lists(SEEDS, min_size=2, max_size=2, unique=True))
    def walk_one_measure(self, gog, seed, seeds):
        for op in measure_ops(gog, random.Random(seed), seeds):
            self.record(op, gog)

    @rule(gog=graphs, seeds=SEED_RUNS)
    def fills(self, gog, seeds):
        for seed in seeds:
            self.record(fills_op(gog, random.Random(seed)), gog)

    # -- enumeration and expansion

    @rule(target=graphs, query=st.sampled_from(QUERIES), seed=SEEDS)
    def enumerate_catalog(self, query, seed):
        found = ds.enumerate_reduced(*query)
        self.calls.append((lambda _: as_json(ds.enumerate_reduced(*query)),
                           None, as_json(found)))
        return multiple(*random.Random(seed).sample(found,
                                                    min(2, len(found))))

    @rule(target=graphs, vertex_groups=st.lists(groups, min_size=1,
                                                max_size=2),
          edge_group=st.none() | groups)
    def enumerate_pinned(self, vertex_groups, edge_group):
        pins = {"vertex_groups": vertex_groups}
        if edge_group is not None:
            pins["edge_groups"] = [edge_group]
        query = (len(vertex_groups), 1, 6)
        found = ds.enumerate_reduced(*query, **pins)
        self.calls.append((lambda _: as_json(ds.enumerate_reduced(
            *query, **pins)), None, as_json(found)))
        return multiple(*found[:2])

    @rule(name=st.sampled_from(["sl2z", "z2z3"]))
    def expansions(self, name):
        if name not in self.builtin:
            self.builtin[name] = cli.load_group(name)
        gog = self.builtin[name]

        def op(g):
            found, report = ds.nonredundant_expansions(g, 1)
            return as_json(found), report
        self.record(op, gog)

    # -- an injection checked from one group, then offered from another

    @rule(k=st.sampled_from([k for k, grp in enumerate(SMALL)
                             if grp.order in (4, 6)]),
          seed=st.none() | SEEDS)
    def edge_checked_from_another_source(self, k, seed):
        target_group = small_group(k, seed)
        source = SMALL[k]
        other = next(grp for grp in SMALL if grp.order == source.order
                     and not fg.are_isomorphic(grp, source))
        mapping = next(fg.isomorphisms_iter(source, target_group)).mapping

        def loop_from(c):
            hom = fg.GroupHom(c, target_group, mapping)
            return gw.GraphOfGroups([("v", target_group)],
                                    [gw.Edge("e", c, ("v", "v"), (hom, hom))],
                                    "v", ())

        def op(_):
            loop_from(source)
            return outcome(lambda c: loop_from(c) and "built", other)
        assert self.record(op) == (
            "GogError", "edge 'e' injection 0 is not a monomorphism")

    # -- the check

    @rule()
    def check_against_fresh_state(self):
        if not self.calls:
            return
        holders = live_holders()
        for op, gog, result in self.calls:
            forget_kept_state(holders)
            assert outcome(op, None if gog is None else rebuilt(gog)) == \
                result
        self.calls.clear()

    def teardown(self):
        self.check_against_fresh_state()


TestKeptState = KeptStateMachine.TestCase
TestKeptState.settings = settings(max_examples=60, stateful_step_count=15)


# -- forget_kept_state knows every kept slot and cache


def package_caches(sources):
    """module.name of each function under a functools.cache or lru_cache
    decorator in the given {module: source} texts."""
    found = []
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) \
                    else getattr(dec, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(f"{mod}.{node.name}")
    return sorted(found)


def test_package_caches_are_found():
    sources = {"a": "import functools\nfrom functools import cache\n"
                    "@functools.cache\ndef f(): pass\n"
                    "@cache\ndef g(): pass\n"
                    "@functools.lru_cache(maxsize=4)\ndef h(): pass\n"
                    "@staticmethod\ndef k(): pass\n"}
    assert package_caches(sources) == ["a.f", "a.g", "a.h"]


def test_forget_kept_state_knows_every_slot_and_cache():
    for cls, kept in KEPT_SLOTS.items():
        assert sorted(cls.__slots__) == sorted(kept + BUILT_SLOTS[cls])
    sources = {f"vfree.{path.stem}": path.read_text() for path in
               sorted(Path(vfree.__file__).parent.glob("*.py"))}
    assert package_caches(sources) == sorted(
        f"{fn.__module__}.{fn.__name__}" for fn in CACHES + (ds._catalog,))

    # Fill every kept slot and cache, checking that no built slot changes.
    gog = renumbered(cli.load_group("sl2z"), random.Random(1))
    built = [(obj, slot, copy.copy(getattr(obj, slot)))
             for obj in [gog, *gog.vertices.values()]
             for slot in BUILT_SLOTS[type(obj)]]
    g = gw.parse_word(gog, "a b a b^-1")
    gen.fills(gog, g)
    gen.sample_walk(gog, gen.uniform_spec(gog, ["a", "b"], 1, 0), 8, 0)
    ds.enumerate_reduced(2, 2, 3)
    cli._parser()
    for name in cli.BUILTIN_GROUPS:
        cli.load_group(name)
    assert gw._builtin_tables.cache_info().currsize == len(cli.BUILTIN_GROUPS)
    assert all(getattr(obj, slot) == value for obj, slot, value in built)
    assert all(fn.cache_info().currsize for fn in CACHES)
    assert all(getattr(obj, slot) for obj in [gog, *gog.vertices.values()]
               for slot in KEPT_SLOTS[type(obj)])

    forget_kept_state()
    assert all(fn.cache_info().currsize == 0 for fn in CACHES)
    for obj in [gog, *gog.vertices.values(), *ds._catalog()]:
        for slot in KEPT_SLOTS[type(obj)]:
            assert len(getattr(obj, slot)) == 0
