"""The four seeded closed-loop workloads.

A workload is built from the imported library and the workload seed: it
loads its presentations and generates its whole op schedule up front, so
the library sees only generated inputs.  Each op is one call into the
public vfree API (or ``vfree.cli.main`` in-process).  ``check`` judges a
result without timing it, and ``digest_text`` renders the byte-stable
part of a result for the run's output digest.

Schedules are made of blocks.  Every block holds the same fixed mix of op
kinds in a seeded order, with seeded inputs, so that runs with different
seeds do the same kind of work and differ only in the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

MASK64 = (1 << 64) - 1


class Workload:
    name = ""
    blocks = 1            # blocks in the generated schedule
    chunk_ops = 1         # ops per throughput sample
    trace_ops = 1         # ops in the traced run: a prefix of the schedule

    def __init__(self, lib: dict, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []
        for _ in range(self.blocks):
            block = self.block()
            self.rng.shuffle(block)
            self.ops.extend(block)

    def block(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None when the result is right, otherwise what is wrong."""
        raise NotImplementedError

    def digest_text(self, op, result) -> str:
        raise NotImplementedError


# -- walk-sl2z -----------------------------------------------------------------

# SL2(Z) = Z/4 *_{Z/2} Z/6 with a -> S and b -> an order-6 matrix whose cube
# is -I, so a^2 = b^3 = -I as in the presentation.
_A = ((0, -1), (1, 0))
_B = ((0, -1), (1, 1))
_MATRIX = {"a": _A, "a^-1": ((0, 1), (-1, 0)),
           "b": _B, "b^-1": ((1, 1), (-1, 0))}


def _matmul(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def _splitmix64(seed: int, index: int) -> int:
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _finite_order(m) -> bool:
    """In SL2(Z): finite order iff M = +-I or |tr M| < 2."""
    scalar = m[0][1] == 0 and m[1][0] == 0 and abs(m[0][0]) == 1
    return scalar or abs(m[0][0] + m[1][1]) < 2


class WalkSl2z(Workload):
    name = "walk-sl2z"
    letters = ("a", "a^-1", "b", "b^-1")
    lengths = (32, 128, 512)
    trials = 2
    blocks = 1000
    chunk_ops = 10
    trace_ops = 24

    def __init__(self, lib, seed):
        self.gog = lib["cli"].load_group("sl2z")
        self.base = lib["genericity"].uniform_spec(self.gog, self.letters,
                                                   self.trials, 0)
        super().__init__(lib, seed)

    def block(self):
        spec = self.lib["genericity"].RandomWalkSpec
        return [spec(self.base.support, self.base.weights, self.trials,
                     self.rng.getrandbits(64))]

    def warm_up(self):
        gen = self.lib["genericity"]
        spec = gen.RandomWalkSpec(self.base.support, self.base.weights, 1, 0)
        gen.run_genericity_experiment(self.gog, spec, (8, 32))

    def run(self, spec):
        return self.lib["genericity"].run_genericity_experiment(
            self.gog, spec, self.lengths)

    def expected_hyperbolic(self, spec) -> list:
        """Hyperbolic counts per length from exact 2x2 integer matrices,
        replaying the documented walk seeding (trial t draws from
        random.Random(splitmix64(seed, t)); uniform weights make each step
        a randrange over the support)."""
        counts = [0] * len(self.lengths)
        for t in range(spec.trials):
            rng = random.Random(_splitmix64(spec.seed, t))
            m = ((1, 0), (0, 1))
            done = 0
            for k, n in enumerate(self.lengths):
                for _ in range(n - done):
                    m = _matmul(m, _MATRIX[self.letters[
                        rng.randrange(len(self.letters))]])
                done = n
                counts[k] += not _finite_order(m)
        return counts

    def check(self, spec, rows):
        if tuple(r.n for r in rows) != self.lengths:
            return f"rows for lengths {[r.n for r in rows]}"
        for r, hyp in zip(rows, self.expected_hyperbolic(spec)):
            if not (0 <= r.filling_count <= r.hyperbolic_count
                    <= r.trials == spec.trials):
                return f"row out of range: {r}"
            if r.hyperbolic_count != hyp:
                return (f"n={r.n}: {r.hyperbolic_count} hyperbolic, "
                        f"matrices say {hyp}")
        return None

    def digest_text(self, spec, rows):
        return f"{spec.seed}:" + ";".join(
            f"{r.n},{r.trials},{r.hyperbolic_count},{r.filling_count}"
            for r in rows)


# -- whitehead-counterexample ----------------------------------------------------


class WhiteheadCounterexample(Workload):
    name = "whitehead-counterexample"
    blocks = 5000
    chunk_ops = 100
    trace_ops = 100
    node_count = {"vA": 4, "vB": 3}   # index sums [G_v : G_e] at each vertex

    def __init__(self, lib, seed):
        self.gog = lib["cli"].load_group("counterexample")
        super().__init__(lib, seed)

    def block(self):
        # With 30% edge-group letters, the median op and the 90th
        # percentile fall inside a translation-length class rather than on
        # the cost gap between two classes, where they would flip between
        # runs.
        rng = self.rng
        toks = []
        for _ in range(rng.randint(4, 24)):
            if rng.random() < 0.3:
                toks.append(rng.choice(("e1", "e2", "e3", "e4")))
            else:
                toks.append(rng.choice("xyz") + rng.choice(("", "^-1")))
        return [" ".join(toks)]

    def warm_up(self):
        self.run("x z y^-1 z e1")

    def run(self, text):
        gw, bt = self.lib["gogwords"], self.lib["bstree"]
        g = gw.normal_form(self.gog, gw.parse_word(self.gog, text))
        c = bt.classify(self.gog, g)
        report = (self.lib["genericity"].fills(self.gog, g)
                  if c.kind == "hyperbolic" else None)
        return g, c, report

    def check(self, text, result):
        g, c, report = result
        if (report is None) != (c.kind == "elliptic"):
            return f"classification {c.kind} with report {report is not None}"
        if report is None:
            return None if c.fixed_vertex is not None else "no fixed vertex"
        if sorted(w.at_vertex.orbit for w in report.graphs) != ["vA", "vB"]:
            return "graphs do not cover vA and vB"
        for w in report.graphs:
            if len(w.nodes) != self.node_count[w.at_vertex.orbit]:
                return f"{len(w.nodes)} nodes at {w.at_vertex.orbit}"
            for e in w.edges:
                if len(e) != 2 or not e <= w.nodes:
                    return f"edge {e} is not a pair of nodes"
        return None

    def digest_text(self, text, result):
        g, c, report = result
        graphs = "" if report is None else ";".join(
            f"{w.at_vertex.orbit},{len(w.nodes)},{len(w.edges)}"
            for w in report.graphs)
        return (f"{text}:{g.start}{g.steps}{g.tail}:{c.kind},"
                f"{c.translation_length}:{graphs}")


# -- splittings ------------------------------------------------------------------

CATALOG_QUERIES = tuple(
    [(1, 1, r) for r in range(1, 8)] + [(2, 1, r) for r in range(1, 8)]
    + [(2, 2, r) for r in range(1, 4)] + [(3, 2, r) for r in range(1, 4)]
    + [(1, 2, r) for r in range(1, 4)] + [(3, 3, r) for r in range(1, 3)])
# Counts the ROADMAP documents for the bridge shape.
KNOWN_COUNTS = {(2, 1, 4): 13, (2, 1, 5): 18, (2, 1, 6): 41, (2, 1, 7): 49}
# Two-vertex amalgams at max order 12 with pinned vertex and edge groups,
# as (catalog index of A, catalog index of B, order of the cyclic edge
# group); each finishes in well under 0.2 s.  The first is sl2z's
# Z/4 *_{Z/2} Z/6, which has exactly one reduced class.  Every block runs
# each catalog query and each amalgam once, in a seeded order.
AMALGAMS = ((3, 6, 2), (7, 13, 2), (3, 21, 2), (13, 17, 2), (12, 19, 2),
            (6, 21, 2), (4, 10, 2), (20, 20, 2), (7, 10, 2), (4, 20, 2),
            (9, 21, 2), (22, 22, 2), (7, 22, 3), (6, 22, 3), (19, 22, 3),
            (12, 12, 1), (19, 19, 2), (3, 9, 2), (6, 6, 2), (10, 19, 1))


class Splittings(Workload):
    name = "splittings"
    blocks = 60
    chunk_ops = len(CATALOG_QUERIES) + len(AMALGAMS)
    trace_ops = chunk_ops

    def __init__(self, lib, seed):
        fg, ds = lib["fingroup"], lib["defspace"]
        catalog = ds.small_groups(12)
        self.pinned = [([catalog[a], catalog[b]], [fg.build_cyclic(c)])
                       for a, b, c in AMALGAMS]
        super().__init__(lib, seed)

    def block(self):
        return list(CATALOG_QUERIES) + [("amalgam", k)
                                        for k in range(len(AMALGAMS))]

    def warm_up(self):
        self.run((2, 1, 4))

    def run(self, op):
        ds = self.lib["defspace"]
        if op[0] == "amalgam":
            vgroups, egroups = self.pinned[op[1]]
            return ds.enumerate_reduced(2, 1, 12, vertex_groups=vgroups,
                                        edge_groups=egroups)
        return ds.enumerate_reduced(*op)

    def check(self, op, found):
        ds = self.lib["defspace"]
        for g in found:
            if not (ds.is_reduced(g) and ds.is_minimal(g)):
                return "an output is not reduced and minimal"
        want = 1 if op == ("amalgam", 0) else KNOWN_COUNTS.get(op)
        if want is not None and len(found) != want:
            return f"{len(found)} classes, expected {want}"
        return None

    def digest_text(self, op, found):
        gw = self.lib["gogwords"]
        return f"{op}:" + json.dumps([gw.gog_to_json(g) for g in found],
                                     sort_keys=True)


# -- cli-mix ---------------------------------------------------------------------

GROUP_LETTERS = {
    "sl2z": ("a", "b"),
    "counterexample": ("x", "y", "z", "e1", "e2", "e3", "e4"),
    "z2z3": ("s", "t"),
}
# Syllables outside the edge group at each vertex, so that alternating
# words of even syllable count are cyclically reduced and hyperbolic.
HYPERBOLIC_SIDES = {
    "sl2z": (("a", "a^-1"), ("b", "b^-1", "b^2", "b^-2")),
    "counterexample": (("x", "y", "x^-1", "y^-1", "x e1", "y e2"),
                       ("z", "z^-1", "z e3", "z^-1 e4")),
    "z2z3": (("s",), ("t", "t^-1")),
}


class CliMix(Workload):
    name = "cli-mix"
    blocks = 100
    chunk_ops = 56
    trace_ops = 84

    def block(self):
        rng = self.rng
        ops = []
        for group in GROUP_LETTERS:
            ops += [["group", "--group", group],
                    ["defspace", "reduced", "--group", group],
                    ["nf", "--group", group, "--word", self.long_word(group)],
                    ["classify", "--group", group,
                     "--word", self.long_word(group)],
                    ["axis", "--group", group, "--word",
                     self.short_word(group), "--periods",
                     str(rng.randint(2, 3))],
                    ["whitehead", "--group", group,
                     "--word", self.short_word(group)]]
        # A second long nf and classify on the two small presentations
        # puts the median op inside the cluster of cheap calls rather than
        # on the edge of it.
        for group in ("sl2z", "z2z3"):
            ops += [["nf", "--group", group, "--word", self.long_word(group)],
                    ["classify", "--group", group,
                     "--word", self.long_word(group)],
                    ["walk", "--group", group, "--lengths", "8,32",
                     "--trials", "3", "--seed", str(rng.randrange(10**6))]]
        ops += [["emit-formula", "theta"], ["verify", "sl2z"],
                ["verify", "counterexample"],
                ["nf", "--group", "sl2z", "--word",
                 f"a^{rng.randint(10**5, 10**6)} b"]]
        return ops

    def long_word(self, group):
        rng = self.rng
        return " ".join(
            f"{rng.choice(GROUP_LETTERS[group])}^"
            f"{rng.choice((-1, 1)) * rng.randint(1, 5)}"
            for _ in range(rng.randint(30, 60)))

    def short_word(self, group):
        sides = HYPERBOLIC_SIDES[group]
        return " ".join(self.rng.choice(sides[k % 2])
                        for k in range(2 * self.rng.randint(1, 2)))

    def warm_up(self):
        self.run(["group", "--group", "sl2z"])
        self.run(["nf", "--group", "counterexample", "--word", "x z"])

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.lib["cli"].main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, argv, result):
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        if argv[0] == "verify" and json.loads(out)["overall"] != "pass":
            return "verification did not pass"
        return None

    def digest_text(self, argv, result):
        return " ".join(argv) + f"\n{result[0]}\n{result[1]}"


WORKLOADS = {w.name: w for w in (WalkSl2z, WhiteheadCounterexample,
                                  Splittings, CliMix)}
