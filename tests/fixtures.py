"""Shared example objects for the test suite.

The two semidirect products and their amalgam are the running
counterexample pair: A = (Z/2)^4 x| (Z/2)^2 where x swaps e1,e2 and y
swaps e3,e4; B = (Z/2)^4 x| Z/3 where z cycles e1,e2,e3; G = A *_C B with
C = (Z/2)^4 included identically on both sides.  They are built here
through the semidirect-product oracle, independently of the library's
builtin constructors, which the tests compare with them.
"""

from __future__ import annotations

import random

import vfree.fingroup as fg
import vfree.gogwords as gw
from oracles import semidirect_by_entries


def build_A() -> fg.FiniteGroup:
    c = fg.build_boolean_vectors(4)
    q = fg.build_boolean_vectors(2, names=("x", "y"))
    return semidirect_by_entries(c, q, {
        "x": fg.basis_cycle_perm("(e1 e2)", 4),
        "y": fg.basis_cycle_perm("(e3 e4)", 4),
    })


def build_B() -> fg.FiniteGroup:
    c = fg.build_boolean_vectors(4)
    q = fg.build_cyclic(3, "z")
    return semidirect_by_entries(c, q, {"z": fg.basis_cycle_perm("(e1 e2 e3)", 4)})


def build_counterexample_gog() -> gw.GraphOfGroups:
    """A *_C B with C = (Z/2)^4 embedded as the normal subgroup of each side."""
    a = build_A()
    b = build_B()
    c = fg.build_boolean_vectors(4)
    names = ["e1", "e2", "e3", "e4"]
    ia = fg.GroupHom.from_generator_images(c, a, {n: a.generator(n) for n in names})
    ib = fg.GroupHom.from_generator_images(c, b, {n: b.generator(n) for n in names})
    return gw.build_amalgam(a, b, c, ia, ib)


def build_sl2z_gog() -> gw.GraphOfGroups:
    """Z/4 *_{Z/2} Z/6 with a^2 = b^3, from explicit element indices."""
    a, b = fg.build_cyclic(4, "a"), fg.build_cyclic(6, "b")
    c = fg.build_cyclic(2, "c")
    return gw.build_amalgam(a, b, c, fg.GroupHom(c, a, (0, 2)),
                            fg.GroupHom(c, b, (0, 3)))


def build_z2_z3() -> gw.GraphOfGroups:
    """Z/2 * Z/3 with generators s and t: the amalgam over the trivial
    group c0, embedded at explicit identity indices."""
    s, t = fg.build_cyclic(2, "s"), fg.build_cyclic(3, "t")
    c = fg.build_cyclic(1, "c0")
    return gw.build_amalgam(s, t, c, fg.GroupHom(c, s, (0,)),
                            fg.GroupHom(c, t, (0,)))


def build_s3_amalgam() -> gw.GraphOfGroups:
    """S3 *_{Z/2} S3 over a transposition: the edge group is not normal."""
    x = fg.group_from_permutations({"x": (1, 0, 2), "y": (1, 2, 0)})
    u = fg.group_from_permutations({"u": (1, 0, 2), "w": (1, 2, 0)})
    c = fg.build_cyclic(2, "c")
    return gw.build_amalgam(
        x, u, c, fg.GroupHom.from_generator_images(c, x, {"c": x.generator("x")}),
        fg.GroupHom.from_generator_images(c, u, {"c": u.generator("u")}))


def build_klein_hnn() -> gw.GraphOfGroups:
    """HNN extension of (Z/2)^2 whose stable letter t conjugates e2 to e1."""
    v = fg.build_boolean_vectors(2)
    c = fg.build_cyclic(2, "c")
    i0 = fg.GroupHom.from_generator_images(c, v, {"c": v.generator("e1")})
    i1 = fg.GroupHom.from_generator_images(c, v, {"c": v.generator("e2")})
    return gw.GraphOfGroups([("v", v)], [gw.Edge("t", c, ("v", "v"), (i0, i1))],
                            "v", set())


def seam_presentations() -> dict[str, gw.GraphOfGroups]:
    """Presentations for the seam-product and axis-window oracle tests:
    the built-ins, a free product, a rose of loop edges, copies whose
    identities are not index 0, and two with non-normal edge groups."""
    out = {"sl2z": gw.build_sl2z(),
           "counterexample": build_counterexample_gog(),
           "z2z3": build_z2_z3()}
    for name in list(out):
        out[name + "-relabelled"] = relabelled(out[name])
    out["z4z6"] = gw.build_free_product(fg.build_cyclic(4, "a"),
                                        fg.build_cyclic(6, "b"))
    out["rose"] = gw.build_rose(["p", "q"])
    out["s3-amalgam"] = build_s3_amalgam()
    out["klein-hnn"] = build_klein_hnn()
    return out


def assert_compiles_like_checked(gog: gw.GraphOfGroups) -> None:
    """gog, which the library built from checked parts without the
    constructor's checks, passes them and compiles to the same records,
    in the same order."""
    again = gw.GraphOfGroups(gog.vertices.items(), gog.edges.values(),
                             gog.base_vertex, gog.spanning_tree)
    assert (again.base_vertex, again.spanning_tree) == \
        (gog.base_vertex, gog.spanning_tree)
    for slot in ("vertices", "edges", "_crossing", "_incident", "_from_base",
                 "_letter_home"):
        assert list(getattr(again, slot).items()) == \
            list(getattr(gog, slot).items()), slot


def random_letter_word(gog, rng, max_letters):
    """Seeded random word text in the presentation's letters and their
    inverses."""
    letters = [name for name, _ in gw.generator_letters(gog)]
    return " ".join(rng.choice(letters) + rng.choice(("", "^-1"))
                    for _ in range(rng.randint(0, max_letters)))


def relabelled(gog: gw.GraphOfGroups) -> gw.GraphOfGroups:
    """The same presentation with every group's element i renamed i + 1
    (mod the order), so no nontrivial group has its identity at index 0.
    Injections are stored as generator words and keep their meaning."""
    data = gw.gog_to_json(gog)
    for part in data["vertices"] + data["edges"]:
        grp = part["group"]
        n = len(grp["table"])
        table = [[0] * n for _ in range(n)]
        labels = [""] * n
        for i, row in enumerate(grp["table"]):
            labels[(i + 1) % n] = grp["labels"][i]
            for j, x in enumerate(row):
                table[(i + 1) % n][(j + 1) % n] = (x + 1) % n
        grp["table"] = table
        grp["labels"] = labels
        grp["generators"] = {k: (i + 1) % n
                             for k, i in grp["generators"].items()}
    return gw.gog_from_json(data)


def random_words(alphabet, count, max_len, seed):
    rng = random.Random(seed)
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
            for _ in range(count)]
