"""Per-layer metrics from a traced run, the end-to-end metric each should
move, and the check that each workload spends its time where it claims.
"""

from __future__ import annotations

from tracing import MODULES, ROOT, Tracer, fit_exponent

# Functions reported with their call count and self time.
TIMED = (
    "gogwords.path_multiply", "gogwords.path_invert", "bstree.axis_window",
    "bstree.vertex_from_path", "genericity.sample_walk",
    "genericity.run_genericity_experiment", "bstree.translate",
    "genericity.fills", "defspace.enumerate_reduced",
    "defspace.are_gog_isomorphic", "fingroup.isomorphisms_iter",
    "fingroup.all_monomorphisms", "fingroup.check_hom", "cli.load_group",
    "gogwords.gog_from_json", "gogwords.GraphOfGroups",
    "fingroup.FiniteGroup", "gogwords.parse_word", "gogwords.normal_form",
    "gogwords.cyclic_reduction", "bstree.classify",
)
# Functions reported with their call count only.
COUNTED = ("bstree.neighbors", "bstree.standard_vertex", "defspace.is_reduced",
           "cli.main", "folds.fold_sequence", "folog.parse")
# Scaling exponents: the slope of log span seconds against log size.
EXPONENTS = ("gogwords.path_multiply", "bstree.axis_window",
             "gogwords.normal_form", "defspace.enumerate_reduced")

# Which end-to-end metrics each group of layer metrics should move.
SHOULD_MOVE = (
    ("gogwords.path_multiply, gogwords.path_invert, bstree.axis_window, "
     "bstree.vertex_from_path, genericity.sample_walk, "
     "genericity.run_genericity_experiment",
     "ops_per_s and p90_ms on walk-sl2z; little change on "
     "whitehead-counterexample, none on splittings"),
    ("bstree.translate, bstree.neighbors, bstree.standard_vertex, "
     "genericity.fills, genericity.whitehead.edges_per_translate",
     "ops_per_s and p50_ms on whitehead-counterexample; small change on "
     "walk-sl2z"),
    ("defspace.*, fingroup.isomorphisms_iter, fingroup.all_monomorphisms, "
     "fingroup.check_hom",
     "ops_per_s, p90_ms and fail_ratio on splittings; none on the walk or "
     "Whitehead workloads"),
    ("cli.load_group, gogwords.gog_from_json, gogwords.GraphOfGroups, "
     "fingroup.FiniteGroup, gogwords.parse_word, gogwords.normal_form, "
     "cli.main",
     "p50_ms and fail_ratio on cli-mix, and setup_s on every workload"),
    ("gogwords.cyclic_reduction, bstree.classify, folds.fold_sequence, "
     "folog.parse", "shared cost, for attribution only"),
    ("<module>.self_s, bench.self_s", "which layer holds the time"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, overhead_ratio: float) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    def calls(name):
        return t.calls[t.index[name]] if name in t.index else 0

    def self_s(name):
        return t.self_s[t.index[name]] if name in t.index else 0.0

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (calls(name), "count")
    c = t.counters
    for key in ("gogwords.path_multiply.left_syllables",
                "bstree.axis_window.vertices", "genericity.sample_walk.steps",
                "defspace.candidates", "gogwords.normal_form.input_syllables"):
        out[key] = (c.get(key, 0), "count")
    out["genericity.whitehead.edges_per_translate"] = (_ratio(
        c.get("genericity.fills.edges", 0),
        c.get("genericity.fills.translate_calls", 0)), "ratio")
    out["defspace.kept_per_candidate"] = (_ratio(
        c.get("defspace.kept", 0), c.get("defspace.candidates", 0)), "ratio")
    out["defspace.are_gog_isomorphic.true_ratio"] = (_ratio(
        c.get("defspace.are_gog_isomorphic.true", 0),
        calls("defspace.are_gog_isomorphic")), "ratio")
    for name in EXPONENTS:
        out[f"{name}.exponent"] = (fit_exponent(t.samples.get(name, {})), "1")
    for mod in MODULES:
        out[f"{mod}.self_s"] = (sum(
            s for n, s in zip(t.names, t.self_s)
            if n.startswith(mod + ".")), "s")
    out["bench.self_s"] = (self_s(ROOT), "s")
    out["bench.op_s"] = (t.total_s[t.index[ROOT]], "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def _total(t: Tracer, name: str) -> float:
    return t.total_s[t.index[name]] if name in t.index else 0.0


def reason_checks(workload: str, t: Tracer, m: dict) -> list:
    """(claim, met, evidence) rows confirming why the workload is there."""
    op_s = m["bench.op_s"][0]

    def share(x):
        return _ratio(x, op_s)

    if workload == "walk-sl2z":
        s = share(m["gogwords.self_s"][0] + m["bstree.self_s"][0])
        return [("gogwords plus bstree self time is most of the op time",
                 s > 0.5, f"{s:.1%} of op time")]
    if workload == "whitehead-counterexample":
        fills = _total(t, "genericity.fills")
        s = share(fills)
        tr = _ratio(_total(t, "bstree.translate"), fills)
        return [("most op time is under genericity.fills", s > 0.5,
                 f"{s:.1%} of op time"),
                ("bstree.translate dominates the time under fills", tr > 0.5,
                 f"{tr:.1%} of fills time, "
                 f"{m['bstree.translate.calls'][0]} calls")]
    if workload == "splittings":
        s = share(m["defspace.self_s"][0] + m["fingroup.self_s"][0])
        tree = sum(n for name, n in zip(t.names, t.calls)
                   if name.startswith("bstree."))
        return [("defspace plus fingroup self time is most of the op time",
                 s > 0.5, f"{s:.1%} of op time"),
                ("there are no bstree spans", tree == 0, f"{tree} spans")]
    load = share(_total(t, "cli.load_group"))
    nf = share(_total(t, "gogwords.normal_form"))
    return [("cli.load_group has a visible share (at least 5%)", load >= 0.05,
             f"{load:.1%} of op time"),
            ("gogwords.normal_form has a visible share (at least 5%)",
             nf >= 0.05, f"{nf:.1%} of op time")]
