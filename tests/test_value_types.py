"""The value types are named tuples: each hashes as the plain tuple of its
fields, prints as Name(field=value, ...), keeps its field order and
defaults, and the folog syntax types are equal only within one type."""

import importlib

import pytest

import vfree.folog as fl
from vfree.genericity import FillingReport

# module, class, fields in order, defaults
VALUE_TYPES = [
    ("bstree", "AxisSegment", ("element", "vertices", "period"), {}),
    ("bstree", "Classification",
     ("kind", "fixed_vertex", "translation_length"), {}),
    ("cli", "Check", ("check_id", "description", "status", "witness"), {}),
    ("cli", "VerificationReport", ("case_name", "checks"), {}),
    ("defspace", "DeformationMove",
     ("kind", "edge", "end", "over", "over_end", "vertex", "subgroup",
      "moved", "new_vertex", "new_edge"),
     {"edge": None, "end": None, "over": None, "over_end": None,
      "vertex": None, "subgroup": None, "moved": (), "new_vertex": None,
      "new_edge": None}),
    ("defspace", "DegreeSum", ("value", "terms"), {}),
    ("fingroup", "Subgroup", ("group", "elements"), {}),
    ("fingroup", "GroupHom", ("source", "target", "mapping"), {}),
    ("fingroup", "HomReport", ("status", "witness"), {"witness": None}),
    ("folds", "MarkedVertex", ("image", "stab"), {}),
    ("folds", "MarkedEdge", ("ends", "twist", "stab"), {}),
    ("folds", "FoldDirective",
     ("kind", "edge", "end", "edge2", "end2", "elements", "classification"),
     {"end": 0, "edge2": None, "end2": None, "elements": (),
      "classification": None}),
    ("folog", "Word", ("syllables",), {}),
    ("folog", "Eq", ("word",), {}),
    ("folog", "Neq", ("word",), {}),
    ("folog", "And", ("parts",), {}),
    ("folog", "Or", ("parts",), {}),
    ("folog", "Implies", ("antecedent", "consequent"), {}),
    ("folog", "Exists", ("variables", "body"), {}),
    ("folog", "Forall", ("variables", "body"), {}),
    ("folog", "Formula", ("free_variables", "body"), {}),
    ("genericity", "WhiteheadGraph", ("at_vertex", "nodes", "edges"), {}),
    ("genericity", "FillingReport", ("element", "fills", "graphs"), {}),
    ("genericity", "OneEndedCertificate", ("status", "report"), {}),
    ("genericity", "MatchResult",
     ("status", "p", "search_radius", "g_translator", "h_translator",
      "overlap", "overlap_length"), {}),
    ("genericity", "RandomWalkSpec", ("support", "weights", "trials", "seed"),
     {}),
    ("genericity", "ExperimentRow",
     ("n", "trials", "hyperbolic_count", "filling_count"), {}),
    ("gogwords", "Edge", ("id", "group", "ends", "inj"), {}),
]

X = fl.word("x")
# Word and Formula check their fields, so they get valid ones.
VALID = {"Word": ((("x", 1),),), "Formula": (("x",), fl.Eq(X))}


def sample(cls_name: str, fields: tuple) -> tuple:
    return VALID.get(cls_name, tuple(f"{cls_name}.{f}" for f in fields))


@pytest.mark.parametrize("mod, cls_name, fields, defaults", VALUE_TYPES,
                         ids=[f"{m}.{c}" for m, c, _, _ in VALUE_TYPES])
def test_value_type_is_a_named_tuple_of_its_fields(mod, cls_name, fields,
                                                   defaults):
    cls = getattr(importlib.import_module(f"vfree.{mod}"), cls_name)
    assert cls._fields == fields and cls._field_defaults == defaults
    values = sample(cls_name, fields)
    x = cls(*values)
    assert tuple(x) == values and hash(x) == hash(values)
    assert repr(x) == f"{cls_name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert x == cls(*values) and not x != cls(*values)


PARTS = (fl.Eq(X), fl.Neq(X))
SAME_SHAPE = [
    (fl.Eq(X), fl.Neq(X)),
    (fl.And(PARTS), fl.Or(PARTS)),
    (fl.Exists(("x",), fl.Eq(X)), fl.Forall(("x",), fl.Eq(X))),
    (fl.Exists(("x",), fl.Eq(X)), fl.Formula(("x",), fl.Eq(X))),
    (fl.Forall(("x",), fl.Eq(X)), fl.Formula(("x",), fl.Eq(X))),
    (fl.Eq(X), (X,)),
    (X, (X.syllables,)),
]


@pytest.mark.parametrize("a, b", SAME_SHAPE, ids=[
    f"{type(a).__name__}-{type(b).__name__}" for a, b in SAME_SHAPE])
def test_syntax_of_one_shape_is_equal_only_within_its_type(a, b):
    assert tuple(a) == tuple(b) and hash(a) == hash(b)
    assert not a == b and not b == a
    assert a != b and b != a
    assert len({a, b}) == 2


@pytest.mark.parametrize("build", [
    lambda: fl.Word((("x", 1), ("x", 1))),
    lambda: fl.Word._make([(("x", 0),)]),
    lambda: X._replace(syllables=(("x", 1), ("x", -1))),
    lambda: fl.Formula(("x", "x"), fl.Eq(X)),
    lambda: fl.Formula._make([(), fl.Eq(X)]),
    lambda: fl.Formula(("x",), fl.Eq(X))._replace(free_variables=()),
    lambda: fl.Formula(("x",), fl.Eq(X))._replace(body=X),
], ids=["word", "word-make", "word-replace", "formula", "formula-make",
        "formula-replace-free", "formula-replace-body"])
def test_word_and_formula_check_every_construction(build):
    with pytest.raises(fl.FormulaError):
        build()


def test_word_and_formula_replace_keeps_a_checked_value():
    w = X._replace(syllables=(("y", 2),))
    assert type(w) is fl.Word and str(w) == "y^2"
    f = fl.Formula(("x",), fl.Eq(X))._replace(free_variables=("x", "y"))
    assert type(f) is fl.Formula and fl.pretty_print(f) == "FREE x y . x = 1"


@pytest.mark.parametrize("fills", [True, False])
def test_filling_report_is_true_when_it_fills(fills):
    assert bool(FillingReport("g", fills, ())) is fills
