"""Command-line entry point and the two built-in verified case studies.

The subcommands are thin wrappers over the library: every pass/fail
decision made here is re-derivable by calling the module operations
directly. Reports, CSV tables, and fixture dumps are deterministic and
byte-stable for fixed inputs and seeds. Checks and reports are named
tuples, equal to the plain tuples of their fields.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .bstree import (
    axis_window,
    classify as classify_element,
    standard_frame,
)
from .defspace import (
    ENUM_EDGE_CAP,
    ENUM_MULTI_EDGE_ORDER_CAP,
    ENUM_ORDER_CAP,
    ENUM_VERTEX_CAP,
    EXPANSION_ORDER_CAP,
    degree_sum,
    enumerate_reduced,
    is_minimal,
    is_non_redundant,
    is_reduced,
    nonredundant_expansions,
)
from .fingroup import (
    GroupHom,
    _check_order,
    _field,
    _typed,
    _typed_list,
    build_cyclic,
    check_hom,
    cycle_notation,
    group_from_permutations,
)
from .folds import (
    StepLimitError,
    fold_sequence,
    identity_marking,
    marked_rose_for_basis,
)
from .folog import (
    SL2Z_RELATORS,
    _check_generator_count,
    classify as classify_formula,
    emit_delta_related,
    emit_mu,
    emit_theta_sl2z,
    parse as parse_formula,
    pretty_print,
)
from .genericity import (
    RandomWalkSpec,
    _walk,
    _walk_plan,
    experiment_csv,
    fills,
    run_genericity_experiment,
    uniform_spec,
    whitehead_graph,
)
from .gogwords import (
    GogError,
    GraphOfGroups,
    NormalForm,
    build_counterexample,
    build_sl2z,
    build_z2z3,
    conjugate,
    element_order,
    format_nf,
    generator_letters,
    gog_from_json,
    gog_to_json,
    identity_nf,
    is_identity,
    nf_to_json,
    parse_word,
    path_multiply,
)

BUILTIN_GROUPS = {"sl2z": build_sl2z, "counterexample": build_counterexample,
                  "z2z3": build_z2z3}
"""The presentations named anywhere a group is read, each built by its
constructor on every load."""

WALK_STEP_CAP = 10**6
"""The most work `walk` accepts: --trials × Σ(n + 1) over the --lengths
entries n, checked before any walk; the + 1 counts a length-0 entry too."""

FOLD_SYLLABLE_CAP = 160
"""The most syllables a basis marking accepts: the total over the normal
forms of its words, which is its edge count, checked before the marked
tree is built.  Fold time grows faster than the square of it: at the cap
the slowest marking tried, on sl2z, ends in about 2.6 s as a fresh
process, and on the rose x, y in about 1.4 s (2-vCPU VM)."""

AXIS_VERTEX_CAP = 2000
"""The most axis steps `axis` accepts: --periods × the translation
length, checked before the window is built.  Each printed vertex carries
its whole coset representative, so the output grows quadratically: on
sl2z with word "a b", 1,000 periods (2,000 steps) print 10 MB."""


def load_group(spec: str, field: str = "--group") -> GraphOfGroups:
    """A new graph of groups from a builtin name or a JSON file path;
    field names the option that gave spec, for the error when it is
    neither."""
    build = BUILTIN_GROUPS.get(spec)
    if build is not None:
        return build()
    return gog_from_json(_load_json(
        spec, field, f"neither a builtin group ({', '.join(BUILTIN_GROUPS)}) "
        "nor a readable file"))


def _load_json(path: str, field: str,
               unreadable: str = "not a readable file"):
    """The JSON value in the file at path.  An unreadable file or malformed
    JSON raises GogError naming the option field that gave the path;
    unreadable says what the path then is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GogError(f"{field} {path!r} is {unreadable} ({exc.strerror})"
                       ) from None
    except (ValueError, RecursionError) as exc:  # bad text, deep nesting
        raise GogError(f"{field} {path!r} is not valid JSON ({exc})") from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _vertex_str(gog: GraphOfGroups, v) -> str:
    return f"{v.orbit}[{format_nf(gog, v.coset_rep)}]"


# -- verification reports ------------------------------------------------------


class Check(NamedTuple):
    check_id: str
    description: str
    status: str
    witness: dict


class VerificationReport(NamedTuple):
    case_name: str
    checks: tuple

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    def to_json(self) -> dict:
        return {"case_name": self.case_name, "overall": self.overall,
                "checks": [c._asdict() for c in self.checks]}


def report_from_json(data: dict) -> VerificationReport:
    checks = tuple(Check(c["check_id"], c["description"], c["status"],
                         c["witness"]) for c in data["checks"])
    report = VerificationReport(data["case_name"], checks)
    if report.overall != data.get("overall", report.overall):
        raise GogError("report overall flag does not match its checks")
    return report


def _run_check(checks: list, cid: str, description: str,
               fn: Callable[[], tuple]) -> None:
    try:
        ok, witness = fn()
    except Exception as exc:
        ok, witness = False, {"error": str(exc)}
    checks.append(Check(cid, description, "pass" if ok else "fail", witness))


# -- case study: the two-cyclic amalgam ----------------------------------------


def verify_sl2z(gog: Optional[GraphOfGroups] = None) -> VerificationReport:
    """Scripted checks for the order-4 / order-6 amalgam over order 2."""
    if gog is None:
        gog = load_group("sl2z")
    checks: list = []

    def check_shape():
        orders = sorted(g.order for g in gog.vertices.values())
        edge_orders = sorted(gog.edges[e].group.order for e in gog.edges)
        ok = orders == [4, 6] and edge_orders == [2]
        return ok, {"vertex_orders": orders, "edge_orders": edge_orders}

    def check_orders():
        a = parse_word(gog, "a")
        b = parse_word(gog, "b")
        a2 = path_multiply(gog, a, a)
        b3 = path_multiply(gog, b, b, b)
        ok = (element_order(gog, a) == 4 and element_order(gog, b) == 6
              and a2 == b3
              and path_multiply(gog, a2, a) == path_multiply(gog, a, a2)
              and path_multiply(gog, a2, b) == path_multiply(gog, b, a2))
        return ok, {"order_a": element_order(gog, a),
                    "order_b": element_order(gog, b),
                    "a^2": format_nf(gog, a2), "b^3": format_nf(gog, b3)}

    def check_unique_class():
        z4, z6, z2 = build_cyclic(4, "a"), build_cyclic(6, "b"), build_cyclic(2, "c")
        found = enumerate_reduced(2, 1, 12, vertex_groups=[z4, z6],
                                  edge_groups=[z2])
        ok = is_reduced(gog) and len(found) == 1
        return ok, {"reduced": is_reduced(gog), "classes": len(found)}

    def check_no_expansions():
        out, rep = nonredundant_expansions(gog, 2)
        ok = len(out) == 1 and rep["frontier_all_redundant"]
        return ok, {"new_splittings": len(out) - 1,
                    "explored": rep["explored"],
                    "frontier_all_redundant": rep["frontier_all_redundant"]}

    def check_sentence():
        th = emit_theta_sl2z(SL2Z_RELATORS, ("x", "x y"))
        ok = classify_formula(th) == "existential" and len(th.free_variables) == 2
        return ok, {"classification": classify_formula(th),
                    "free_variables": list(th.free_variables),
                    "formula": pretty_print(th)}

    _run_check(checks, "a", "amalgam of an order-4 and an order-6 cyclic "
               "group over an order-2 edge group", check_shape)
    _run_check(checks, "b", "a has order 4, b has order 6, and a^2 = b^3 "
               "commutes with both generators", check_orders)
    _run_check(checks, "c", "the splitting is reduced and is the unique "
               "reduced class for this vertex/edge group shape", check_unique_class)
    _run_check(checks, "d", "no non-redundant splitting appears within two "
               "elementary expansions", check_no_expansions)
    _run_check(checks, "e", "the transport sentence is existential with one "
               "free variable per image word", check_sentence)
    return VerificationReport("sl2z", tuple(checks))


# -- case study: the endomorphism counterexample --------------------------------


def _edge_injections(gog: GraphOfGroups) -> dict:
    """The edge group's injection into each of its two end vertices."""
    e = gog.edges["e"]
    return dict(zip(e.ends, e.inj))


def counterexample_psi(gog: GraphOfGroups) -> GroupHom:
    """The automorphism of the order-64 factor swapping x with y and
    acting on the normal boolean subgroup by (e1 e3)(e2 e4)."""
    a = gog.vertices["vA"]
    images = {"x": "y", "y": "x", "e1": "e3", "e2": "e4",
              "e3": "e1", "e4": "e2"}
    return GroupHom.from_generator_images(
        a, a, {src: a.generator(dst) for src, dst in images.items()})


def counterexample_phi(gog: GraphOfGroups) -> Callable:
    """The endomorphism acting as psi on the vA factor and as conjugation
    by u = z^-1 x y z on the vB factor, applied syllable by syllable to
    a normal form from this library."""
    psi = counterexample_psi(gog)
    u = parse_word(gog, "z^-1 x y z")
    loops_a, loops_b = (standard_frame(gog, vid).stabilizer
                        for vid in ("vA", "vB"))
    images_b: dict = {}

    def syllable_image(vid: str, elem: int):
        if vid == "vA":
            return loops_a[psi(elem)]
        if elem not in images_b:
            images_b[elem] = conjugate(gog, u, loops_b[elem])
        return images_b[elem]

    def phi(nf):
        out = identity_nf(gog)
        v = nf.start
        for r, t in nf.steps:
            out = path_multiply(gog, out, syllable_image(v, r))
            v = gog.far(t)
        return path_multiply(gog, out, syllable_image(v, nf.tail))

    return phi


def _phi_predicted_steps(gog: GraphOfGroups, inj: dict, nf) -> int:
    """Syllable length the phi image must have if no reduction occurs.

    Each vA syllable maps to one vA syllable and each vB syllable to the
    five-syllable word z^-1 . xy . (z b z^-1) . (xy)^-1 . z; concatenation
    stays alternating, so the image length is exact unless something
    collapses."""
    sides = []
    v = nf.start
    for r, t in nf.steps:
        if r not in inj[v].mapping:
            sides.append(v)
        v = gog.far(t)
    if nf.tail not in inj[v].mapping:
        sides.append(v)
    if not sides:
        return 0
    total = sum(1 if s == "vA" else 5 for s in sides)
    return (total - 1) + (sides[0] == "vB") + (sides[-1] == "vB")


def _letter_measure(gog: GraphOfGroups, trials: int, seed: int
                    ) -> RandomWalkSpec:
    """The uniform measure on the generator letters and their inverses."""
    return uniform_spec(gog, [w for name, _ in generator_letters(gog)
                              for w in (name, f"{name}^-1")], trials, seed)


def _sample_reduced_forms(gog: GraphOfGroups, loops: dict,
                          max_syllables: int, target: int, seed: int) -> list:
    """The first target distinct non-identity elements of syllable length
    at most max_syllables among the vertex-group elements (loops maps each
    vertex to its stabilizer), then those passed by seeded walks of
    2 * max_syllables letters, 40 * target steps in all."""
    plan = _walk_plan(gog, _letter_measure(gog, 1, seed))
    walked = (NormalForm(gog.base_vertex, tuple(steps), tail)
              for trial in range(20 * target // max_syllables)
              for _, steps, tail in _walk(gog, plan, trial,
                                          range(2 * max_syllables + 1)))
    seen: dict = {}
    for nf in itertools.chain(*(loops[v] for v in sorted(gog.vertices)),
                              walked):
        if len(seen) == target:
            break
        if len(nf.steps) <= max_syllables and not is_identity(gog, nf):
            seen.setdefault(nf, nf)
    return list(seen)


def verify_counterexample(gog: Optional[GraphOfGroups] = None
                          ) -> VerificationReport:
    """Scripted checks for the amalgam of the order-64 and order-48 groups
    whose x and y are swapped by an endomorphism but by no automorphism."""
    if gog is None:
        gog = load_group("counterexample")
    checks: list = []
    basis = ("e1", "e2", "e3", "e4")
    loops = {vid: standard_frame(gog, vid).stabilizer
             for vid in gog.vertices}

    def check_build():
        a, b = gog.vertices["vA"], gog.vertices["vB"]
        e = gog.edges["e"]
        ok = (a.order == 64 and b.order == 48 and e.group.order == 16
              and all(inj.is_injective() for inj in e.inj))
        return ok, {"order_A": a.order, "order_B": b.order,
                    "order_C": e.group.order}

    def check_psi():
        psi = counterexample_psi(gog)
        report = check_hom(psi)
        a = gog.vertices["vA"]
        image = {psi(g) for g in range(a.order)}
        ok = report.status == "valid_iso" and len(image) == a.order
        return ok, {"hom_status": report.status,
                    "bijective": len(image) == a.order,
                    "x_image": a.label(psi(a.generator("x"))),
                    "y_image": a.label(psi(a.generator("y")))}

    def check_conjugation_matches_psi():
        psi = counterexample_psi(gog)
        u = parse_word(gog, "z^-1 x y z")
        e, ia = gog.edges["e"], _edge_injections(gog)["vA"]
        agreements = 0
        for c in range(e.group.order):
            lhs = conjugate(gog, u, loops["vA"][ia(c)])
            rhs = loops["vA"][psi(ia(c))]
            agreements += lhs == rhs
        perm = []
        a = gog.vertices["vA"]
        basis_elems = {a.generator(n): i for i, n in enumerate(basis)}
        for name in basis:
            img = conjugate(gog, u, loops["vA"][a.generator(name)])
            perm.append(basis_elems[img.tail])
        ok = agreements == e.group.order
        return ok, {"agreements": agreements, "out_of": e.group.order,
                    "permutation": cycle_notation(perm, basis)}

    def check_phi_well_defined():
        phi = counterexample_phi(gog)
        inj = _edge_injections(gog)
        agree = all(phi(loops["vA"][inj["vA"](c)])
                    == phi(loops["vB"][inj["vB"](c)])
                    for c in range(gog.edges["e"].group.order))
        x = parse_word(gog, "x")
        y = parse_word(gog, "y")
        swaps = phi(x) == y and phi(y) == x
        return agree and swaps, {"edge_agreements": agree, "swaps_x_y": swaps}

    def check_normal_form_preservation():
        phi, inj = counterexample_phi(gog), _edge_injections(gog)
        sample = _sample_reduced_forms(gog, loops, max_syllables=6,
                                       target=240, seed=20250814)
        preserved = nontrivial = 0
        for w in sample:
            image = phi(w)
            nontrivial += not is_identity(gog, image)
            preserved += len(image.steps) == _phi_predicted_steps(
                gog, inj, w)
        ok = preserved == len(sample) and nontrivial == len(sample)
        return ok, {"sampled": len(sample), "max_syllables": 6,
                    "no_collapse": preserved, "nontrivial_images": nontrivial}

    def check_conjugation_actions():
        a, b = gog.vertices["vA"], gog.vertices["vB"]
        basis_a = {a.generator(n): i for i, n in enumerate(basis)}
        basis_b = {b.generator(n): i for i, n in enumerate(basis)}

        def action(group, g, basis_idx):  # basis_idx lists the basis in order
            return tuple(basis_idx[group.conj(g, e)] for e in basis_idx)

        fx = action(a, a.generator("x"), basis_a)
        fy = action(a, a.generator("y"), basis_a)
        hz = action(b, b.generator("z"), basis_b)
        n_x = group_from_permutations({"s": fx, "t": hz}).order
        n_y = group_from_permutations({"s": fy, "t": hz}).order
        ok = n_x == 6 and n_y == 24
        return ok, {"f_x": cycle_notation(fx, basis),
                    "f_y": cycle_notation(fy, basis),
                    "h_z": cycle_notation(hz, basis),
                    "order_with_x": n_x, "order_with_y": n_y,
                    "non_isomorphic": n_x != n_y}

    _run_check(checks, "a", "the two factors have orders 64 and 48 over an "
               "order-16 edge group with injective inclusions", check_build)
    _run_check(checks, "b", "psi is an automorphism of the order-64 factor",
               check_psi)
    _run_check(checks, "c", "conjugation by u = z^-1 x y z agrees with psi "
               "on all 16 edge-group elements", check_conjugation_matches_psi)
    _run_check(checks, "d", "phi (psi on one factor, conjugation by u on "
               "the other) is well defined and swaps x and y",
               check_phi_well_defined)
    _run_check(checks, "e", "phi sends sampled reduced normal forms of "
               "syllable length <= 6 to reduced normal forms with the exact "
               "no-collapse syllable count, and never to the identity",
               check_normal_form_preservation)
    _run_check(checks, "f", "the conjugation actions of <x, z> and <y, z> "
               "on the edge group have orders 6 and 24, so no automorphism "
               "sends x to y", check_conjugation_actions)
    return VerificationReport("counterexample", tuple(checks))


# -- subcommand implementations --------------------------------------------------


def cmd_group(args) -> int:
    gog = load_group(args.group)
    if args.format == "json":
        print(_dump(gog_to_json(gog)))
        return 0
    print("vertices:")
    for vid in sorted(gog.vertices):
        grp = gog.vertices[vid]
        gens = " ".join(sorted(grp.generators)) or "-"
        print(f"  {vid}: order {grp.order}, generators {gens}")
    print("edges:")
    for eid in sorted(gog.edges):
        e = gog.edges[eid]
        tree = ", tree" if eid in gog.spanning_tree else ""
        print(f"  {eid}: order {e.group.order}, {e.ends[0]} -- {e.ends[1]}{tree}")
    print(f"base: {gog.base_vertex}")
    return 0


def cmd_nf(args) -> int:
    gog = load_group(args.group)
    nf = parse_word(gog, args.word)
    if args.format == "json":
        print(_dump(nf_to_json(gog, nf)))
    else:
        print(format_nf(gog, nf))
    return 0


def cmd_classify(args) -> int:
    gog = load_group(args.group)
    c = classify_element(gog, parse_word(gog, args.word))
    if args.format == "json":
        out = {"kind": c.kind, "translation_length": c.translation_length}
        if c.fixed_vertex is not None:
            out["fixed_vertex"] = {
                "orbit": c.fixed_vertex.orbit,
                "rep": format_nf(gog, c.fixed_vertex.coset_rep)}
        print(_dump(out))
    elif c.kind == "elliptic":
        print(f"elliptic: fixes {_vertex_str(gog, c.fixed_vertex)}")
    else:
        print(f"hyperbolic: translation length {c.translation_length}")
    return 0


def cmd_axis(args) -> int:
    gog = load_group(args.group)
    g = parse_word(gog, args.word)
    steps = args.periods * classify_element(gog, g).translation_length
    if steps > AXIS_VERTEX_CAP:
        raise GogError(f"--periods × translation length is {steps}, above "
                       f"the axis cap {AXIS_VERTEX_CAP}")
    seg = axis_window(gog, g, args.periods)
    if args.format == "json":
        print(_dump({"period": seg.period,
                     "vertices": [{"orbit": v.orbit,
                                   "rep": format_nf(gog, v.coset_rep)}
                                  for v in seg.vertices]}))
    else:
        for v in seg.vertices:
            print(_vertex_str(gog, v))
    return 0


def cmd_defspace(args) -> int:
    if args.action in ("reduced", "expand") and args.group is None:
        raise GogError(f"--group is required for {args.action!r}")
    if args.action == "reduced":
        gog = load_group(args.group)
        ds = degree_sum(gog)
        out = {"reduced": is_reduced(gog),
               "non_redundant": is_non_redundant(gog),
               "minimal": is_minimal(gog),
               "degree_sum": ds.value,
               "degrees": {v: d for v, d in ds.terms}}
        if args.format == "json":
            print(_dump(out))
        else:
            for key in ("reduced", "non_redundant", "minimal", "degree_sum"):
                print(f"{key}: {out[key]}")
            terms = " + ".join(f"({d}-2)" for _, d in ds.terms)
            print(f"degrees: {ds.value} = {terms}")
        return 0
    if args.action == "enumerate":
        found = enumerate_reduced(args.vertices, args.edges, args.max_order)
        if args.format == "json":
            print(_dump([gog_to_json(g) for g in found]))
        else:
            print(f"{len(found)} isomorphism classes")
        return 0
    gog = load_group(args.group)
    fresh = nonredundant_expansions(gog, args.depth)[0][1:]
    if args.format == "json":
        print(_dump([gog_to_json(g) for g in fresh]))
    else:
        print(f"{len(fresh)} non-redundant expansions within depth {args.depth}")
    return 0


def _list_field(data: dict, key: str, want: type, where: str) -> list:
    """The required field data[key], a JSON list whose entries have type
    want; errors name the field as where (a dotted path when nested)."""
    return _typed_list(_typed(data[key], "a list", f"field {where!r}"),
                       want, where)


def cmd_fold(args) -> int:
    if args.max_steps < 0:
        raise GogError(f"--max-steps is {args.max_steps}, below 0")
    gog = load_group(args.target, "--target")
    spec = _typed(_load_json(args.source, "--source"), "an object",
                  "marking JSON")
    kind = spec.get("marking")
    if kind == "identity":
        marked = identity_marking(gog)
    elif kind == "basis":
        words = _list_field(spec, "words", str, "words")
        hub = _typed(spec.get("hub", "u"), "a string", "field 'hub'")
        forms = [parse_word(gog, w) for w in words]
        syllables = sum(g.syllable_length() for g in forms)
        if syllables > FOLD_SYLLABLE_CAP:
            raise GogError(f"field 'words' has {syllables} syllables, above "
                           f"the marking cap {FOLD_SYLLABLE_CAP}")
        marked = marked_rose_for_basis(gog, forms, hub=hub)
    else:
        raise GogError(f"unknown marking kind {kind!r}; expected "
                       "'identity' or 'basis'")
    try:
        steps = fold_sequence(marked, gog, max_steps=args.max_steps)
    except StepLimitError:
        raise GogError(f"--max-steps {args.max_steps} exceeded before "
                       "reaching the target") from None
    for i, (d, tree) in enumerate(steps):
        record = {"step": i + 1, "kind": d.kind,
                  "classification": d.classification,
                  "edge": d.edge, "end": d.end,
                  "edge2": d.edge2, "end2": d.end2,
                  "elements": [format_nf(gog, x) for x in d.elements],
                  "edge_orbits_after": len(tree.edges),
                  "vertex_orbits_after": len(tree.vertices)}
        if args.format == "json":
            print(json.dumps(record, sort_keys=True))
        else:
            with_part = f" with {d.edge2}@{d.end2}" if d.edge2 else ""
            print(f"{i + 1}. {d.kind} fold at {d.edge}@{d.end}{with_part} "
                  f"[{d.classification}] -> {len(tree.edges)} edge orbits")
    return 0


def cmd_whitehead(args) -> int:
    gog = load_group(args.group)
    g = parse_word(gog, args.word)
    if args.vertex is not None:
        graphs = [whitehead_graph(gog, g, args.vertex)]
        fills_flag = all(w.is_complete for w in graphs)
    else:
        report = fills(gog, g)
        graphs = list(report.graphs)
        fills_flag = report.fills
    if args.format == "json":
        print(_dump({
            "element": format_nf(gog, g),
            "fills": fills_flag,
            "graphs": [{
                "orbit": w.at_vertex.orbit,
                "nodes": len(w.nodes),
                "edges": len(w.edges),
                "complete": w.is_complete,
                "missing": [[_vertex_str(gog, p), _vertex_str(gog, q)]
                            for p, q in w.missing_pairs()],
            } for w in graphs]}))
    else:
        print(f"element: {format_nf(gog, g)}")
        print(f"fills: {'yes' if fills_flag else 'no'}")
        for w in graphs:
            print(f"  {w.at_vertex.orbit}: nodes {len(w.nodes)}, "
                  f"edges {len(w.edges)}, "
                  f"complete {'yes' if w.is_complete else 'no'}, "
                  f"missing {len(w.missing_pairs())}")
    return 0


def _integer(text, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GogError(f"{where} is not an integer: {text!r}") from None


def _weight(w, i: int) -> Fraction:
    try:
        return Fraction(w)
    except (TypeError, ValueError, ZeroDivisionError):
        raise GogError(f"weights[{i}] is not a rational number: {w!r}"
                       ) from None


def cmd_walk(args) -> int:
    gog = load_group(args.group)
    seed = _integer(os.environ.get("VFREE_SEED", args.seed), "VFREE_SEED")
    if args.measure is not None:
        data = _typed(_load_json(args.measure, "--measure"), "an object",
                      "measure JSON")
        words = [_typed(w, "a string", f"support[{i}]")
                 for i, w in enumerate(_field(data, "support", "a list"))]
        spec = uniform_spec(gog, words, args.trials, seed)
        if "weights" in data:
            spec = spec._replace(weights=tuple(
                _weight(w, i) for i, w in
                enumerate(_field(data, "weights", "a list"))))
    else:
        spec = _letter_measure(gog, args.trials, seed)
    lengths = [_integer(part, "--lengths entry")
               for part in args.lengths.split(",") if part]
    if not lengths:
        raise GogError("--lengths lists no length")
    work = args.trials * (sum(lengths) + len(lengths))
    if work > WALK_STEP_CAP:
        raise GogError(f"--trials × Σ(--lengths entry + 1) is {work}, above "
                       f"the walk cap {WALK_STEP_CAP}")
    rows = run_genericity_experiment(gog, spec, lengths)
    if args.format == "json":
        print(_dump([{"n": r.n, "trials": r.trials,
                      "hyperbolic_count": r.hyperbolic_count,
                      "filling_count": r.filling_count,
                      "filling_rate": float(r.filling_rate)} for r in rows]))
    else:
        print(experiment_csv(rows), end="")
    return 0


def _delta_formula(spec: dict, prefix: str):
    """The delta formula of a JSON object with fields n and blocks, named
    prefix + field in errors."""
    n = _typed(spec["n"], "an integer", f"field {prefix + 'n'!r}")
    _check_generator_count(f"field {prefix + 'n'!r}", n)
    blocks = [_typed_list(b, str, f"{prefix}blocks[{i}]") for i, b in
              enumerate(_list_field(spec, "blocks", list, prefix + "blocks"))]
    return emit_delta_related(n, blocks)


def _inner_formula(params: dict):
    spec = _typed(params["inner"], "an object", "field 'inner'")
    kind = spec.get("kind", "delta")
    if kind == "delta":
        return _delta_formula(spec, "inner.")
    if kind == "text":
        return parse_formula(_typed(spec["formula"], "a string",
                                    "field 'inner.formula'"))
    raise GogError(f"unknown inner formula kind {kind!r}")


def _presentation(params: dict, key: str) -> tuple:
    spec = _typed(params[key], "an object", f"field {key!r}")
    count = _typed(spec["generators"], "an integer",
                   f"field '{key}.generators'")
    _check_generator_count(f"field '{key}.generators'", count)
    return count, _list_field(spec, "relators", str, f"{key}.relators")


def cmd_emit_formula(args) -> int:
    params = _typed(_load_json(args.params, "--params") if args.params else {},
                    "an object", "parameter JSON")
    if args.which == "theta":
        given = {"relators": SL2Z_RELATORS, "words": ["x"],
                 "orders": (4, 6), **params}
        relators = _list_field(given, "relators", str, "relators")
        words = _list_field(given, "words", str, "words")
        orders = _list_field(given, "orders", int, "orders")
        if len(orders) != 2:
            raise GogError(f"field 'orders' must list 2 orders "
                           f"(got {len(orders)})")
        for order in orders:
            _check_order("field 'orders' entry", order)
        f = emit_theta_sl2z(relators, words, tuple(orders))
    elif args.which == "delta":
        f = _delta_formula(params, "")
    else:
        f = emit_mu(_presentation(params, "g"), _presentation(params, "u"),
                    *(_list_field(params, key, str, key)
                      for key in ("embedding", "tests", "kill")),
                    _inner_formula(params))
    if args.format == "json":
        print(_dump({"formula": pretty_print(f),
                     "classification": classify_formula(f),
                     "free_variables": list(f.free_variables)}))
    else:
        print(pretty_print(f))
    return 0


def cmd_verify(args) -> int:
    report = verify_sl2z() if args.case == "sl2z" else verify_counterexample()
    if args.format == "text":
        print(f"case: {report.case_name}")
        for c in report.checks:
            print(f"[{c.status}] ({c.check_id}) {c.description}")
        print(f"overall: {report.overall}")
    else:
        print(_dump(report.to_json()))
    return 0 if report.overall == "pass" else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfree",
        description="Exact computation in virtually free groups presented "
                    "as finite graphs of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, default_format="text"):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--format", choices=("text", "json"),
                        default=default_format)
        sp.set_defaults(func=func)
        return sp

    sp = add("group", "summarize or dump a graph of groups", cmd_group)
    sp.add_argument("--group", required=True,
                    help="JSON file or builtin: " + ", ".join(BUILTIN_GROUPS))

    sp = add("nf", "normal form of a word", cmd_nf)
    sp.add_argument("--group", required=True)
    sp.add_argument("--word", required=True)

    sp = add("classify", "elliptic or hyperbolic, with the invariant",
             cmd_classify)
    sp.add_argument("--group", required=True)
    sp.add_argument("--word", required=True)

    sp = add("axis", "vertex path along the axis of a hyperbolic element",
             cmd_axis)
    sp.add_argument("--group", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--periods", type=int, default=3,
                    help="--periods × translation length is capped at "
                         f"{AXIS_VERTEX_CAP}")

    sp = add("defspace", "deformation space reports", cmd_defspace)
    sp.add_argument("action", choices=("reduced", "enumerate", "expand"))
    sp.add_argument("--group", help="required for reduced and expand; "
                    "expand refuses a vertex group of order above "
                    f"{EXPANSION_ORDER_CAP}")
    sp.add_argument("--vertices", type=int, default=2,
                    help=f"enumerate: 1..{ENUM_VERTEX_CAP}")
    sp.add_argument("--edges", type=int, default=1,
                    help=f"enumerate: 0..{ENUM_EDGE_CAP}")
    sp.add_argument("--max-order", type=int, default=6,
                    help="enumerate: 1.."
                         f"{ENUM_ORDER_CAP}, and at most "
                         f"{ENUM_MULTI_EDGE_ORDER_CAP} with two edges or "
                         "more")
    sp.add_argument("--depth", type=int, default=2)

    sp = add("fold", "fold a marked tree onto a presentation", cmd_fold)
    sp.add_argument("--source", required=True,
                    help="marking JSON: {\"marking\": \"identity\"} or "
                         "{\"marking\": \"basis\", \"words\": [...]}; "
                         "the words' normal forms have at most "
                         f"{FOLD_SYLLABLE_CAP} syllables in all, which fold "
                         "in under 3 s")
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-steps", type=int, default=50,
                    help="at least 0")

    sp = add("whitehead", "Whitehead graphs and the filling certificate",
             cmd_whitehead)
    sp.add_argument("--group", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--vertex", help="restrict to one vertex orbit")

    sp = add("walk", "random-walk genericity experiment (CSV)", cmd_walk)
    sp.add_argument("--group", default="sl2z")
    sp.add_argument("--measure", help="JSON with support and optional weights")
    sp.add_argument("--lengths", required=True,
                    help="comma-separated; --trials × Σ(length + 1) is "
                         f"capped at {WALK_STEP_CAP}")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0,
                    help="overridden by VFREE_SEED if set")

    sp = add("emit-formula", "render one of the built-in sentence shapes",
             cmd_emit_formula)
    sp.add_argument("which", choices=("theta", "delta", "mu"))
    sp.add_argument("--params", help="JSON parameter file")

    sp = add("verify", "run a built-in verified case study", cmd_verify,
             default_format="json")
    sp.add_argument("case", choices=("sl2z", "counterexample"))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"vfree: missing required field {exc.args[0]!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"vfree: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
