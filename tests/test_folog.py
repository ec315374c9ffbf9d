"""Formula ASTs: word algebra, the three emitters, classification, rendering."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import vfree.folog as folog
from vfree.folog import (
    SL2Z_RELATORS,
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Implies,
    Neq,
    Or,
    Word,
    atoms,
    classify,
    emit_delta_related,
    emit_mu,
    emit_theta_sl2z,
    parse,
    pretty_print,
    substitute,
    winv,
    wmul,
    word,
    wpow,
    wsub,
)

THETA_K1 = (
    "FREE u1 . (EXISTS x y . (x^4 = 1 AND y^6 = 1 AND x^2 y^-3 = 1 AND "
    "u1 x^-1 = 1 AND x ~= 1 AND x^2 ~= 1 AND x^3 ~= 1 AND y ~= 1 AND "
    "y^2 ~= 1 AND y^3 ~= 1 AND y^4 ~= 1 AND y^5 ~= 1))"
)

DELTA_MIN = "FREE x1 x2 . (EXISTS u1 . x1 u1 x2^-1 u1^-1 = 1)"

MU_SMALL = (
    "FREE z1 . (FORALL x1 x2 . ((x1^4 = 1 AND x2^6 = 1 AND x1^2 x2^-3 = 1 "
    "AND z1 x1^-2 = 1) => (EXISTS y1 u1 . (y1^6 = 1 AND (y1^2 = 1 OR "
    "y1^3 = 1) AND x1 x2 u1 y1^-1 u1^-1 = 1))))"
)


def test_word_algebra():
    assert word("x y y^-1 x") == word("x^2")
    assert word("1") == Word(())
    assert str(word("x^3 y^-2")) == "x^3 y^-2"
    assert str(word("1")) == "1"
    assert winv(word("x y^-2")) == word("y^2 x^-1")
    assert wmul("x", "x^-1") == Word(())
    assert wpow(word("x y"), 2) == word("x y x y")
    assert wpow(word("x"), -3) == word("x^-3")
    assert wsub(word("x^2 y"), {"x": word("a b")}) == word("a b a b y")
    assert word(word("x")) == word("x")
    with pytest.raises(FormulaError):
        word("AND")
    with pytest.raises(FormulaError):
        Word((("x", "2"),))


def power_by_copies(w, k):
    """w^k as the product of |k| copies of w or of its inverse."""
    return wmul(*[w if k > 0 else winv(w)] * abs(k))


syllable = st.tuples(st.sampled_from("xyz"), st.sampled_from([-2, -1, 1, 2, 3]))


@settings(max_examples=300)
@given(core=st.lists(syllable, max_size=6), conj=st.lists(syllable, max_size=3),
       k=st.integers(-6, 6))
def test_power_matches_copies_and_the_cap_is_exact(core, conj, k):
    c = wmul(*(f"{v}^{e}" for v, e in conj))
    w = wmul(c, wmul(*(f"{v}^{e}" for v, e in core)), winv(c))
    want = power_by_copies(w, k)
    assert wpow(w, k) == want
    # The cap refuses exactly the powers longer than it, one-syllable
    # cores (whose powers do not grow with k) aside.
    grows = len(power_by_copies(w, abs(k) + 1).syllables) > len(want.syllables)
    with mock.patch.object(folog, "MAX_POWER_SYLLABLES",
                           len(want.syllables) - 1):
        if grows and k:
            with pytest.raises(FormulaError, match="above the cap"):
                wpow(w, k)
        else:
            assert wpow(w, k) == want


def test_theta_golden_and_counts():
    th = emit_theta_sl2z(SL2Z_RELATORS, ["x"])
    assert pretty_print(th) == THETA_K1
    assert parse(THETA_K1) == th
    assert classify(th) == "existential"
    assert th.free_variables == ("u1",)
    leaves = atoms(th.body)
    assert sum(isinstance(a, Neq) for a in leaves) == 3 + 5
    assert sum(isinstance(a, Eq) for a in leaves) == len(SL2Z_RELATORS) + 1


def test_theta_free_count_matches_word_count():
    th = emit_theta_sl2z(SL2Z_RELATORS, ["x y", "y^2 x^-1", "x^-1 y x"])
    assert th.free_variables == ("u1", "u2", "u3")
    assert classify(th) == "existential"
    assert parse(pretty_print(th)) == th


def test_theta_general_orders():
    th = emit_theta_sl2z(["x^2", "y^3"], ["x y"], orders=(2, 3))
    leaves = atoms(th.body)
    assert sum(isinstance(a, Neq) for a in leaves) == 1 + 2


def test_theta_rejections():
    with pytest.raises(FormulaError):
        emit_theta_sl2z(SL2Z_RELATORS, [])
    with pytest.raises(FormulaError):
        emit_theta_sl2z(SL2Z_RELATORS, ["x z"])
    with pytest.raises(FormulaError):
        emit_theta_sl2z(["x^4 w"], ["x"])
    with pytest.raises(FormulaError):
        emit_theta_sl2z(SL2Z_RELATORS, ["x"], orders=(1, 6))


def test_delta_smallest_instance():
    de = emit_delta_related(1, [["x1"]])
    assert pretty_print(de) == DELTA_MIN
    assert parse(DELTA_MIN) == de
    assert classify(de) == "existential"
    assert de.free_variables == ("x1", "x2")


def test_delta_free_count_is_twice_n():
    de = emit_delta_related(3, [["x1 x2", "x3"], ["x2^-1 x1"]])
    assert len(de.free_variables) == 6
    assert de.free_variables == tuple(f"x{i}" for i in range(1, 7))
    assert classify(de) == "existential"
    assert parse(pretty_print(de)) == de
    # the declaration is positional: x3 gets no occurrence when the words
    # only use x1, yet the free list still has length 2n
    de2 = emit_delta_related(3, [["x1"]])
    assert len(de2.free_variables) == 6
    assert parse(pretty_print(de2)) == de2


def test_delta_rejections():
    with pytest.raises(FormulaError):
        emit_delta_related(1, [])
    with pytest.raises(FormulaError):
        emit_delta_related(2, [["x1"], []])
    with pytest.raises(FormulaError):
        emit_delta_related(2, [["x3"]])
    with pytest.raises(FormulaError):
        emit_delta_related(0, [["x1"]])


def test_generator_counts_are_capped_before_any_variable_is_named():
    cap = folog.MAX_FORMULA_GENERATORS
    assert len(emit_delta_related(cap, [["x1"]]).free_variables) == 2 * cap
    with pytest.raises(FormulaError, match="n 10001 is above the generator "
                       "cap 10000"):
        emit_delta_related(cap + 1, [["x1"]])
    inner = emit_delta_related(1, [["x1"]])
    for g, u, what in ((10**9, 1, "ambient"), (1, 10**9, "subgroup")):
        with pytest.raises(FormulaError, match=f"{what} generator count "
                           "1000000000 is above the generator cap 10000"):
            emit_mu((g, []), (u, []), ["x1"], ["x1"], ["y1"], inner)


def mu_small():
    inner = emit_delta_related(1, [["x1"]])
    return emit_mu(
        (2, SL2Z_RELATORS_X12),
        (1, ["y1^6"]),
        ["x1 x2"],
        ["x1^2"],
        ["y1^2", "y1^3"],
        inner,
    )


SL2Z_RELATORS_X12 = ["x1^4", "x2^6", "x1^2 x2^-3"]


def test_mu_golden():
    mu = mu_small()
    assert pretty_print(mu) == MU_SMALL
    assert parse(MU_SMALL) == mu
    assert classify(mu) == "forall_exists"
    assert mu.free_variables == ("z1",)


def test_mu_two_subgroup_generators():
    inner = emit_delta_related(2, [["x1", "x2"]])
    mu = emit_mu(
        (2, SL2Z_RELATORS_X12),
        (2, ["y1^4", "y2^6", "y1^2 y2^-3"]),
        ["x1", "x2"],
        ["x1 x2", "x2^3"],
        ["y1^2", "y2^3"],
        inner,
    )
    assert classify(mu) == "forall_exists"
    assert mu.free_variables == ("z1", "z2")
    assert parse(pretty_print(mu)) == mu


def test_mu_quantifier_free_inner():
    inner = Formula(("a1", "a2"), Eq(word("a1 a2^-1")))
    mu = emit_mu((1, ["x1^4"]), (1, ["y1^6"]), ["x1"], ["x1"], ["y1"], inner)
    assert classify(mu) == "forall_exists"
    assert parse(pretty_print(mu)) == mu


def test_mu_rejections():
    inner = emit_delta_related(1, [["x1"]])
    with pytest.raises(FormulaError, match="kill list"):
        emit_mu((2, SL2Z_RELATORS_X12), (1, ["y1^6"]), ["x1"], ["x1"], [],
                inner)
    with pytest.raises(FormulaError, match="test word"):
        emit_mu((2, SL2Z_RELATORS_X12), (1, ["y1^6"]), ["x1"], [], ["y1"],
                inner)
    with pytest.raises(FormulaError, match="embedding word"):
        emit_mu((2, SL2Z_RELATORS_X12), (1, ["y1^6"]), ["x1", "x2"], ["x1"],
                ["y1"], inner)
    with pytest.raises(FormulaError, match="free variables"):
        emit_mu((2, SL2Z_RELATORS_X12), (2, ["y1^4"]), ["x1", "x2"], ["x1"],
                ["y1"], inner)
    with pytest.raises(FormulaError, match="kill-list"):
        emit_mu((2, SL2Z_RELATORS_X12), (1, ["y1^6"]), ["x1"], ["x1"],
                ["x1"], inner)


def test_classify_shapes():
    qf = Formula(("a",), Eq(word("a^2")))
    assert classify(qf) == "existential"
    uni = Formula((), Forall(("a",), Neq(word("a"))))
    assert classify(uni) == "universal"
    fe = Formula((), Forall(("a",), Exists(("b",), Eq(word("a b")))))
    assert classify(fe) == "forall_exists"
    ef = Formula((), Exists(("a",), Forall(("b",), Eq(word("a b")))))
    assert classify(ef) == "other"
    fef = Formula((), Forall(("a",), Exists(
        ("b",), Forall(("c",), Eq(word("a b c"))))))
    assert classify(fef) == "other"
    # a universal buried inside a conjunction is not a leading block
    buried = Formula((), Exists(("a",), And((
        Eq(word("a")), Forall(("b",), Eq(word("a b")))))))
    assert classify(buried) == "other"
    # hoisting stops when the antecedent itself carries a quantifier
    qa = Formula((), Forall(("a",), Implies(
        Exists(("b",), Eq(word("a b"))),
        Exists(("c",), Eq(word("a c"))))))
    assert classify(qa) == "other"


def test_formula_validation():
    with pytest.raises(FormulaError):
        Formula((), Eq(word("a")))
    with pytest.raises(FormulaError):
        Formula(("a",), Exists(("a",), Eq(word("a"))))
    with pytest.raises(FormulaError):
        Formula((), Exists(("a", "a"), Eq(word("a"))))
    with pytest.raises(FormulaError):
        Formula((), Exists((), Eq(Word(()))))
    with pytest.raises(FormulaError):
        Formula((), And((Eq(Word(())),)))
    with pytest.raises(FormulaError):
        Formula(("a", "a"), Eq(word("a")))


def test_substitute_refuses_capture():
    body = Exists(("u",), Eq(word("u x")))
    assert substitute(body, {"x": word("v")}) == Exists(
        ("u",), Eq(word("u v")))
    with pytest.raises(FormulaError):
        substitute(body, {"x": word("u")})
    with pytest.raises(FormulaError):
        substitute(body, {"u": word("v")})


def test_parse_rejections():
    with pytest.raises(FormulaError):
        parse("x = 1 y = 1")
    with pytest.raises(FormulaError):
        parse("(x = 1)")
    with pytest.raises(FormulaError):
        parse("(x = 1 AND y = 1")
    with pytest.raises(FormulaError):
        parse("FREE x . x = 2")
    with pytest.raises(FormulaError):
        parse("x & y")


@pytest.mark.parametrize("text, message", [
    ("((", "unexpected end of formula"),
    ("", "unexpected end of formula"),
    ("(x = 1 AND", "unexpected end of formula"),
    ("x ^", "unexpected end of formula"),
    ("x =", "expected '1', got end of formula"),
    ("(x = 1 AND y = 1", "expected ')', got end of formula"),
    ("FREE x", "expected '.', got end of formula"),
    ("x = 2", "expected '1', got '2'"),
    ("x AND", "expected '=' or '~=', got 'AND'"),
    ("(x = 1 y = 1)", "expected a connective, got 'y'"),
    ("(x = 1", "expected a connective, got end of formula"),
])
def test_parse_names_the_end_of_the_formula(text, message):
    with pytest.raises(FormulaError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_malformed_exponents_are_named():
    with pytest.raises(FormulaError) as exc:
        word("x^a")
    assert str(exc.value) == "malformed exponent in 'x^a'"
    with pytest.raises(FormulaError) as exc:
        parse("FREE x1 x2 . x1^x2 = 1")
    assert str(exc.value) == "malformed exponent in 'x1^x2'"


def words_over(names):
    """Word texts over the given variables with exponents of either sign,
    "1" when empty."""
    return st.lists(st.tuples(st.sampled_from(names), st.integers(-9, 9)),
                    max_size=4).map(
        lambda sylls: " ".join(f"{v}^{e}" for v, e in sylls) or "1")


def variables(prefix, count):
    return [f"{prefix}{j + 1}" for j in range(count)]


@st.composite
def emitted_formulas(draw):
    """A formula from one of the three emitters, on random words."""
    which = draw(st.sampled_from(["theta", "delta", "mu"]))
    if which == "theta":
        return emit_theta_sl2z(
            draw(st.lists(words_over(["x", "y"]), max_size=3)),
            draw(st.lists(words_over(["x", "y"]), min_size=1, max_size=3)),
            draw(st.tuples(st.integers(2, 6), st.integers(2, 6))))
    if which == "delta":
        n = draw(st.integers(1, 3))
        return emit_delta_related(n, draw(st.lists(
            st.lists(words_over(variables("x", n)), min_size=1, max_size=3),
            min_size=1, max_size=3)))
    n, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    xs, ys = words_over(variables("x", n)), words_over(variables("y", p))
    inner = emit_delta_related(p, draw(st.lists(
        st.lists(words_over(variables("x", p)), min_size=1, max_size=2),
        min_size=1, max_size=2)))
    return emit_mu((n, draw(st.lists(xs, max_size=2))),
                   (p, draw(st.lists(ys, max_size=2))),
                   draw(st.lists(xs, min_size=p, max_size=p)),
                   draw(st.lists(xs, min_size=1, max_size=2)),
                   draw(st.lists(ys, min_size=1, max_size=2)), inner)


@settings(max_examples=150)
@given(f=emitted_formulas())
def test_emitted_formulas_round_trip(f):
    assert parse(pretty_print(f)) == f


def random_formula(rng):
    """A small well-formed formula with rng-driven shape."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def rand_word(scope):
        k = rng.randint(1, 4)
        return wmul(*(wpow(word(rng.choice(scope)), rng.choice([-2, -1, 1, 2, 3]))
                      for _ in range(k)))

    def node(scope, depth):
        if depth == 0 or rng.random() < 0.3:
            cls = Eq if rng.random() < 0.5 else Neq
            return cls(rand_word(scope))
        kind = rng.choice(["and", "or", "implies", "exists", "forall"])
        if kind in ("and", "or"):
            parts = tuple(node(scope, depth - 1)
                          for _ in range(rng.randint(2, 3)))
            return (And if kind == "and" else Or)(parts)
        if kind == "implies":
            return Implies(node(scope, depth - 1), node(scope, depth - 1))
        names = tuple(fresh() for _ in range(rng.randint(1, 2)))
        inner = node(scope + list(names), depth - 1)
        return (Exists if kind == "exists" else Forall)(names, inner)

    free = tuple(fresh() for _ in range(rng.randint(1, 3)))
    return Formula(free, node(list(free), 3))


def test_round_trip_fuzz():
    rng = random.Random(1729)
    for _ in range(60):
        f = random_formula(rng)
        text = pretty_print(f)
        assert parse(text) == f
        assert classify(f) in {"existential", "universal",
                               "forall_exists", "other"}
